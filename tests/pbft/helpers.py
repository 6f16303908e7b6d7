"""Builders for PBFT test groups."""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.pbft.config import PBFTConfig
from repro.pbft.replica import PBFTReplica
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.topology import single_dc_topology


class VerifyingReplica(PBFTReplica):
    """A plain PBFT replica whose verification routine is ``verifier``
    (``(value, record_type, meta) -> bool | None``), as a Blockplane
    node's routines are."""

    verifier = None

    def pre_validate(self, msg):
        """An honest leader refuses values its own verification routine
        would reject rather than burn a sequence number on them."""
        if self.engine.verdict(msg.value, msg.record_type, msg.meta) is False:
            return "verification routine rejected the value"
        return None

    def verify(self, value, record_type, meta):
        return self.verifier(value, record_type, meta)


def make_group(
    n: int = 4,
    seed: int = 1,
    config: Optional[PBFTConfig] = None,
    overrides: Optional[Dict[int, Type[PBFTReplica]]] = None,
    verifier=None,
    override_kwargs: Optional[dict] = None,
    obs=None,
):
    """Build one single-datacenter PBFT group.

    Returns:
        (sim, list of replicas). Replica i has id ``r{i}``; r0 leads
        view 0. With a ``verifier`` the replicas not in ``overrides``
        are :class:`VerifyingReplica`. When ``obs`` is given every
        replica records into it (flight-recorder / forensics tests).
    """
    sim = Simulator(seed=seed)
    if obs is not None and obs.enabled:
        obs.bind_clock(sim)
    network = Network(sim, single_dc_topology("DC"))
    peers = [f"r{i}" for i in range(n)]
    honest = PBFTReplica if verifier is None else VerifyingReplica
    replicas: List[PBFTReplica] = []
    for index, peer in enumerate(peers):
        cls = (overrides or {}).get(index, honest)
        kwargs = dict(override_kwargs or {}) if cls is not honest else {}
        if obs is not None:
            kwargs["obs"] = obs
        replica = cls(
            sim,
            network,
            peer,
            "DC",
            list(peers),
            config=config or PBFTConfig(),
            **kwargs,
        )
        if cls is VerifyingReplica:
            replica.verifier = verifier
        replicas.append(replica)
    return sim, replicas


def commit_values(sim, replica, values, payload_bytes=100):
    """Commit several values sequentially from one replica."""
    results = []

    def work():
        for value in values:
            entry = yield replica.submit(value, payload_bytes=payload_bytes)
            results.append(entry)

    process = sim.spawn(work())
    sim.run_until_resolved(process, max_events=10_000_000)
    return results


def assert_honest_agreement(replicas, expected_length=None):
    """All honest replicas executed identical logs."""
    logs = [
        [(e.seq, e.value) for e in replica.executed_entries]
        for replica in replicas
    ]
    for log in logs[1:]:
        assert log == logs[0]
    if expected_length is not None:
        assert len(logs[0]) == expected_length
