"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import pytest

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.obs import Observability
from repro.pbft.messages import CommittedEntry
from repro.sim.simulator import Simulator
from repro.sim.topology import (
    aws_four_dc_topology,
    single_dc_topology,
    symmetric_topology,
)


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=42)


@pytest.fixture
def obs() -> Observability:
    """A fresh hub; pass it to a builder, then assert on its journal
    events and registry counters."""
    return Observability()


def build_single_dc(
    sim: Simulator,
    f_independent: int = 1,
    routines_factory=None,
    node_class_overrides=None,
    config: BlockplaneConfig = None,
    obs: Observability = None,
) -> BlockplaneDeployment:
    """One participant ('DC'), 3f+1 nodes, no wide area."""
    return BlockplaneDeployment(
        sim,
        single_dc_topology("DC"),
        config or BlockplaneConfig(f_independent=f_independent),
        routines_factory=routines_factory,
        node_class_overrides=node_class_overrides,
        obs=obs,
    )


def build_four_dc(
    sim: Simulator,
    config: BlockplaneConfig = None,
    routines_factory=None,
    node_class_overrides=None,
    replication_sets=None,
    obs: Observability = None,
) -> BlockplaneDeployment:
    """The paper's four-datacenter AWS deployment."""
    return BlockplaneDeployment(
        sim,
        aws_four_dc_topology(),
        config or BlockplaneConfig(f_independent=1),
        routines_factory=routines_factory,
        node_class_overrides=node_class_overrides,
        replication_sets=replication_sets,
        obs=obs,
    )


def build_pair(
    sim: Simulator,
    rtt_ms: float = 20.0,
    config: BlockplaneConfig = None,
    obs: Observability = None,
) -> BlockplaneDeployment:
    """Two participants A and B with a symmetric RTT."""
    return BlockplaneDeployment(
        sim,
        symmetric_topology(["A", "B"], rtt_ms),
        config or BlockplaneConfig(f_independent=1),
        obs=obs,
    )


def drain(sim: Simulator, until: float = 10_000.0, max_events: int = 5_000_000):
    """Run the simulation for a bounded virtual time window."""
    sim.run(until=until, max_events=max_events)


def resolve(sim: Simulator, future, max_events: int = 10_000_000):
    """Run until a future resolves; return its value."""
    return sim.run_until_resolved(future, max_events=max_events)


def apply_committed(node, record_type: str, value, meta=None) -> None:
    """Run ``node``'s apply path on ``value`` as if PBFT had just
    committed it, without a consensus round."""
    node._apply_entry(
        CommittedEntry(
            seq=node.local_log.next_position, view=0, value=value,
            record_type=record_type, meta=meta,
        )
    )
