"""Property-based tests for Paxos safety (hypothesis)."""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paxos.node import MultiPaxosNode
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology


def make_cluster(n_sites, seed, rtt=10.0):
    sim = Simulator(seed=seed)
    sites = [f"S{i}" for i in range(n_sites)]
    network = Network(sim, symmetric_topology(sites, rtt))
    peers = [f"{site}-p" for site in sites]
    nodes = [
        MultiPaxosNode(sim, network, f"{site}-p", site, list(peers))
        for site in sites
    ]
    return sim, nodes


@given(
    n_sites=st.integers(min_value=3, max_value=7),
    proposer_order=st.permutations([0, 1, 2]),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_dueling_proposers_never_choose_conflicting_values(
    n_sites, proposer_order, seed
):
    sim, nodes = make_cluster(n_sites, seed)
    # Three nodes race to become leader and replicate their own value.
    for index in proposer_order:
        node = nodes[index]

        def campaign(node=node, index=index):
            try:
                yield node.elect_leader()
            except Exception:
                return
            if node.is_leader:
                try:
                    yield node.replicate(f"value-from-{index}")
                except Exception:
                    return

        sim.spawn(campaign())
    sim.run(until=5000.0, max_events=5_000_000)
    # Safety: a value is chosen for a slot when a majority of acceptors
    # holds the same (ballot, value) for it; each slot chooses one value.
    held = collections.Counter(
        (slot, entry)
        for node in nodes
        for slot, entry in node.core.accepted.items()
    )
    chosen = collections.defaultdict(set)
    for (slot, (_ballot, value)), count in held.items():
        if count >= nodes[0].majority:
            chosen[slot].add(value)
    for slot, values in chosen.items():
        assert len(values) == 1, f"slot {slot} diverged: {values}"


@given(
    crash_mask=st.lists(st.booleans(), min_size=5, max_size=5),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=30, deadline=None)
def test_chosen_values_survive_any_minority_crash(crash_mask, seed):
    sim, nodes = make_cluster(5, seed)
    leader = nodes[0]
    sim.run_until_resolved(leader.elect_leader())
    sim.run_until_resolved(leader.replicate("durable"))
    sim.run(until=sim.now + 100)
    # Crash at most a minority (2 of 5), never the would-be new leader.
    crashed = 0
    for index, crash in enumerate(crash_mask):
        if crash and crashed < 2 and index != 1:
            nodes[index].crash()
            crashed += 1
    # A surviving node takes over and must re-learn "durable" in slot 1.
    successor = nodes[1]
    sim.run_until_resolved(successor.elect_leader(), max_events=2_000_000)
    sim.run(until=sim.now + 200)
    assert successor.chosen.get(1) == "durable"
