"""Flat wide-area Paxos: the benign baseline of Figure 7.

One :class:`~repro.paxos.node.MultiPaxosNode` per datacenter. The
Replication-phase latency with a stable leader is one round trip to the
closest majority of datacenters — the floor every byzantizing approach
is compared against.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.paxos.node import MultiPaxosNode
from repro.sim.network import Network, NetworkOptions
from repro.sim.process import Future
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology


class FlatPaxosDeployment:
    """Paxos with one node per site.

    Args:
        sim: Owning simulator.
        topology: Site layout.
        leader_site: Site whose node runs Phase 1 and leads replication.
        network: Optional shared network.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        leader_site: str,
        network: Optional[Network] = None,
        network_options: Optional[NetworkOptions] = None,
    ) -> None:
        if leader_site not in topology.site_names:
            raise ConfigurationError(f"unknown leader site {leader_site!r}")
        self.sim = sim
        self.topology = topology
        self.network = network or Network(sim, topology, network_options)
        self.peer_ids = [f"{site}-paxos" for site in topology.site_names]
        self.nodes: Dict[str, MultiPaxosNode] = {}
        for site in topology.site_names:
            node = MultiPaxosNode(
                sim, self.network, f"{site}-paxos", site, list(self.peer_ids)
            )
            self.nodes[site] = node
        self.leader_site = leader_site
        self.leader = self.nodes[leader_site]

    def elect_leader(self) -> Future:
        """Run Phase 1 at the configured leader site."""
        return self.leader.elect_leader()

    def replicate(self, value: Any, payload_bytes: int = 0) -> Future:
        """Run one Replication phase (the quantity Figure 7 reports)."""
        return self.leader.replicate(value, payload_bytes)
