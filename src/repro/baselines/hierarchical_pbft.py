"""Hierarchical PBFT: the ablation baseline of Figure 7.

"The idea of using hierarchy and local-aware computation can be used
without the overhead of Blockplane API separation and communication"
(Section VIII-D). This system keeps Blockplane-Paxos's communication
pattern — PBFT inside each datacenter to mask byzantine failures,
Paxos-style accept/accepted across datacenters — but skips the
middleware machinery: no signature-collection round, no separate
communication-record commit before a message leaves, no received-record
commit chain. Each wide-area message costs exactly one local PBFT
commit at each end.

Expected latency therefore sits between flat Paxos (nothing local) and
Blockplane-Paxos (full API separation).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.pbft.config import PBFTConfig
from repro.pbft.quorums import site_majority, unit_size
from repro.pbft.replica import PBFTReplica
from repro.sim.network import Network, NetworkOptions
from repro.sim.node import Message
from repro.sim.process import Future
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology


@dataclasses.dataclass
class GlobalAccept(Message):
    """Leader site → other sites: adopt this value for this slot."""

    slot: int = 0
    value: Any = None


@dataclasses.dataclass
class GlobalAccepted(Message):
    """A site's acknowledgement after locally committing the accept."""

    slot: int = 0
    site: str = ""


class HierarchicalPBFTNode(PBFTReplica):
    """A PBFT replica that doubles as its site's global coordinator.

    The gateway replica (index 0) of each site handles the wide-area
    phase; every site runs ``3f + 1`` of these locally.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.deployment: Optional["HierarchicalPBFTDeployment"] = None
        super().__init__(*args, **kwargs)
        self._global_votes: Dict[int, set] = {}
        self._global_futures: Dict[int, Future] = {}
        self._next_global_slot = 1

    # -- leader-site side ------------------------------------------------
    def global_replicate(self, value: Any, payload_bytes: int = 0) -> Future:
        """Commit ``value`` globally: local PBFT commit, one wide-area
        accept round to a majority of sites, final local commit."""
        slot = self._next_global_slot
        self._next_global_slot += 1
        future = Future(self.sim, label=f"hier-global-{slot}")
        self._global_futures[slot] = future
        self.sim.spawn(self._replicate_process(slot, value, payload_bytes))
        return future

    def _replicate_process(self, slot: int, value: Any, payload_bytes: int):
        # Step 1: the proposal becomes durable in the leader site's SMR
        # log (masking local byzantine failures).
        yield self.submit(("propose", slot, value), payload_bytes=payload_bytes)
        self._global_votes.setdefault(slot, set()).add(self.site)
        # Step 2: one wide-area round, Paxos-accept style.
        accept = GlobalAccept(
            payload_bytes=payload_bytes, slot=slot, value=value
        )
        # Batched fan-out: the network groups the remote gateways by
        # site and enqueues one composite arrival event per site.
        self.broadcast(
            [
                gateway.node_id
                for site, gateway in self.deployment.gateways.items()
                if site != self.site
            ],
            accept,
        )
        # Completion is driven by handle_global_accepted.

    def handle_global_accepted(self, msg: GlobalAccepted, src: str) -> None:
        votes = self._global_votes.setdefault(msg.slot, set())
        votes.add(msg.site)
        future = self._global_futures.get(msg.slot)
        if future is None or future.resolved:
            return
        if len(votes) >= self.deployment.site_majority:
            # Step 3: record the decision durably at the leader site.
            final = self._commit_unverified(("chosen", msg.slot))
            final.add_done_callback(
                lambda _f: None if future.resolved else future.resolve(msg.slot)
            )

    def _commit_unverified(self, value: Any, payload_bytes: int = 0) -> Future:
        """Commit a value a remote site's message carries through this
        site's PBFT. Nothing is checked: the ablation keeps Blockplane's
        hierarchy but none of its verification (Section VIII-D)."""
        return self.engine.submit(value, payload_bytes=payload_bytes)[1]

    # -- remote-site side ------------------------------------------------
    def handle_global_accept(self, msg: GlobalAccept, src: str) -> None:
        # Locally commit the accept through this site's PBFT (the SMR
        # log is the communication medium — no extra verification or
        # signature machinery).
        committed = self._commit_unverified(
            ("accept", msg.slot, msg.value), payload_bytes=msg.payload_bytes
        )

        def _reply(_future) -> None:
            self.send(src, GlobalAccepted(slot=msg.slot, site=self.site))

        committed.add_done_callback(_reply)


class HierarchicalPBFTDeployment:
    """PBFT units per site + a Paxos-style global phase.

    Args:
        sim: Owning simulator.
        topology: Site layout.
        leader_site: Site that proposes global values.
        f: Byzantine failures tolerated inside each site.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        leader_site: str,
        f: int = 1,
        network: Optional[Network] = None,
        network_options: Optional[NetworkOptions] = None,
        config: Optional[PBFTConfig] = None,
    ) -> None:
        if leader_site not in topology.site_names:
            raise ConfigurationError(f"unknown leader site {leader_site!r}")
        self.sim = sim
        self.topology = topology
        self.network = network or Network(sim, topology, network_options)
        self.site_majority = site_majority(len(topology.site_names))
        members = unit_size(f)
        self.units: Dict[str, List[HierarchicalPBFTNode]] = {}
        self.gateways: Dict[str, HierarchicalPBFTNode] = {}
        for site in topology.site_names:
            peer_ids = [f"{site}-h{i}" for i in range(members)]
            nodes = [
                HierarchicalPBFTNode(
                    sim,
                    self.network,
                    peer_id,
                    site,
                    list(peer_ids),
                    config=config or PBFTConfig(),
                )
                for peer_id in peer_ids
            ]
            for node in nodes:
                node.deployment = self
            self.units[site] = nodes
            self.gateways[site] = nodes[0]
        self.leader_site = leader_site
        self.leader = self.gateways[leader_site]

    def replicate(self, value: Any, payload_bytes: int = 0) -> Future:
        """Globally commit one value from the leader site."""
        return self.leader.global_replicate(value, payload_bytes)
