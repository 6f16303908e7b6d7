"""Tests for the Figure 7 baseline systems."""

import pytest

from repro.baselines import (
    FlatPaxosDeployment,
    FlatPBFTDeployment,
    HierarchicalPBFTDeployment,
)
from repro.errors import ConfigurationError
from repro.sim.topology import aws_four_dc_topology

#: C hears a majority of the four sites (itself plus two peers) at the
#: RTT to its second-closest peer, V (Table I) — the paper's model of
#: one Paxos replication round.
C_MAJORITY_RTT_MS = 61.0


def measure_rounds(sim, replicate, rounds=5, payload=1000):
    start = sim.now

    def work():
        for index in range(rounds):
            yield replicate(f"v{index}", payload)

    sim.run_until_resolved(sim.spawn(work()), max_events=100_000_000)
    return (sim.now - start) / rounds


# ---------------------------------------------------------------------
# Flat Paxos
# ---------------------------------------------------------------------
def test_flat_paxos_latency_equals_majority_rtt(sim):
    topology = aws_four_dc_topology()
    deployment = FlatPaxosDeployment(sim, topology, "C")
    sim.run_until_resolved(deployment.elect_leader())
    latency = measure_rounds(sim, deployment.replicate)
    assert latency == pytest.approx(C_MAJORITY_RTT_MS, abs=2)


def test_flat_paxos_values_learned_everywhere(sim):
    deployment = FlatPaxosDeployment(sim, aws_four_dc_topology(), "V")
    sim.run_until_resolved(deployment.elect_leader())
    sim.run_until_resolved(deployment.replicate("x"))
    sim.run(until=sim.now + 300)
    for site in "COVI":
        assert deployment.nodes[site].chosen == {1: "x"}


def test_flat_paxos_unknown_leader_site(sim):
    with pytest.raises(ConfigurationError):
        FlatPaxosDeployment(sim, aws_four_dc_topology(), "X")


# ---------------------------------------------------------------------
# Flat PBFT
# ---------------------------------------------------------------------
def test_flat_pbft_commits_across_wide_area(sim):
    deployment = FlatPBFTDeployment(sim, aws_four_dc_topology(), "C")
    entry = sim.run_until_resolved(
        deployment.commit("value"), max_events=50_000_000
    )
    assert entry.value == "value"


def test_flat_pbft_latency_much_higher_than_paxos(sim):
    topology = aws_four_dc_topology()
    deployment = FlatPBFTDeployment(sim, topology, "C")
    latency = measure_rounds(sim, deployment.commit)
    # Three wide-area phases: far beyond one majority round trip.
    assert latency > C_MAJORITY_RTT_MS * 1.4


def test_flat_pbft_leader_site_leads_view_zero(sim):
    deployment = FlatPBFTDeployment(sim, aws_four_dc_topology(), "V")
    assert deployment.leader.is_leader


def test_flat_pbft_agreement_across_sites(sim):
    deployment = FlatPBFTDeployment(sim, aws_four_dc_topology(), "C")

    def work():
        for index in range(3):
            yield deployment.commit(f"v{index}")

    sim.run_until_resolved(sim.spawn(work()), max_events=50_000_000)
    sim.run(until=sim.now + 1000)
    logs = [
        [e.value for e in replica.executed_entries]
        for replica in deployment.replicas.values()
    ]
    assert all(log == logs[0] for log in logs)
    assert logs[0] == ["v0", "v1", "v2"]


# ---------------------------------------------------------------------
# Hierarchical PBFT
# ---------------------------------------------------------------------
def test_hierarchical_pbft_commits(sim):
    deployment = HierarchicalPBFTDeployment(sim, aws_four_dc_topology(), "C")
    slot = sim.run_until_resolved(
        deployment.replicate("value"), max_events=50_000_000
    )
    assert slot == 1


def test_hierarchical_latency_between_paxos_and_blockplane(sim):
    topology = aws_four_dc_topology()
    deployment = HierarchicalPBFTDeployment(sim, topology, "C")
    latency = measure_rounds(sim, deployment.replicate)
    floor = C_MAJORITY_RTT_MS
    assert floor < latency < floor + 8  # small local-commit overhead only


def test_hierarchical_remote_sites_commit_accepts_locally(sim):
    deployment = HierarchicalPBFTDeployment(sim, aws_four_dc_topology(), "C")
    sim.run_until_resolved(deployment.replicate("v"), max_events=50_000_000)
    sim.run(until=sim.now + 1000)
    committed_sites = 0
    for site, nodes in deployment.units.items():
        if site == "C":
            continue
        values = [e.value for e in nodes[0].executed_entries]
        if ("accept", 1, "v") in values:
            committed_sites += 1
    assert committed_sites >= 2  # a majority of remote sites


def test_hierarchical_masks_local_byzantine_failure(sim):
    deployment = HierarchicalPBFTDeployment(sim, aws_four_dc_topology(), "C")
    # Crash one local replica at the leader site (f=1 masked locally).
    deployment.units["C"][3].crash()
    slot = sim.run_until_resolved(
        deployment.replicate("resilient"), max_events=50_000_000
    )
    assert slot == 1
