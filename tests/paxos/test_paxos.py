"""Unit tests for multi-decree Paxos."""

import pytest

from repro.errors import ProtocolError
from repro.paxos.node import MultiPaxosNode
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology, symmetric_topology


def make_cluster(topology=None, seed=1):
    sim = Simulator(seed=seed)
    topology = topology or symmetric_topology(["A", "B", "C"], 10.0)
    network = Network(sim, topology)
    peers = [f"{site}-p" for site in topology.site_names]
    nodes = {
        site: MultiPaxosNode(sim, network, f"{site}-p", site, list(peers))
        for site in topology.site_names
    }
    return sim, nodes


def test_leader_election_succeeds():
    sim, nodes = make_cluster()
    future = nodes["A"].elect_leader()
    ballot = sim.run_until_resolved(future)
    assert nodes["A"].is_leader
    assert ballot[1] == "A-p"


def test_replicate_requires_leadership():
    _sim, nodes = make_cluster()
    with pytest.raises(ProtocolError):
        nodes["A"].replicate("v")


def test_replicated_value_is_accepted_on_a_majority():
    sim, nodes = make_cluster()
    sim.run_until_resolved(nodes["A"].elect_leader())
    slot = sim.run_until_resolved(nodes["A"].replicate("value-1"))
    sim.run(until=sim.now + 50)
    assert nodes["A"].chosen == {slot: "value-1"}
    accepted_count = sum(
        1
        for node in nodes.values()
        if node.core.accepted.get(slot, (None, None))[1] == "value-1"
    )
    assert accepted_count >= nodes["A"].majority


def test_slots_are_sequential():
    sim, nodes = make_cluster()
    sim.run_until_resolved(nodes["A"].elect_leader())
    slots = [
        sim.run_until_resolved(nodes["A"].replicate(f"v{i}")) for i in range(5)
    ]
    assert slots == [1, 2, 3, 4, 5]


def test_replication_latency_is_majority_rtt():
    sim, nodes = make_cluster(topology=aws_four_dc_topology())
    leader = nodes["C"]
    sim.run_until_resolved(leader.elect_leader())
    start = sim.now
    sim.run_until_resolved(leader.replicate("v"))
    latency = sim.now - start
    # Majority for C = closest 2 peers; 2nd closest is V at 61ms RTT.
    assert 60.0 <= latency <= 63.0


def test_higher_ballot_deposes_leader():
    sim, nodes = make_cluster()
    sim.run_until_resolved(nodes["A"].elect_leader())
    assert nodes["A"].is_leader
    sim.run_until_resolved(nodes["B"].elect_leader())
    assert nodes["B"].is_leader
    # A's next replicate gets nacked and A steps down.
    future = nodes["A"].replicate("stale")
    sim.run(until=sim.now + 100)
    assert not nodes["A"].is_leader
    assert not future.resolved or future.exception is not None


def test_new_leader_adopts_previously_accepted_values():
    sim, nodes = make_cluster()
    sim.run_until_resolved(nodes["A"].elect_leader())
    sim.run_until_resolved(nodes["A"].replicate("chosen-by-A"))
    sim.run(until=sim.now + 50)
    # B takes over; the already-chosen value must survive in slot 1.
    sim.run_until_resolved(nodes["B"].elect_leader())
    sim.run(until=sim.now + 100)
    assert nodes["B"].chosen.get(1) == "chosen-by-A"


def test_majority_arithmetic():
    _sim, nodes = make_cluster()
    assert nodes["A"].majority == 2


def test_election_fails_without_majority():
    sim, nodes = make_cluster()
    nodes["B"].crash()
    nodes["C"].crash()
    future = nodes["A"].elect_leader()
    sim.run(until=500.0)
    assert not future.resolved


def test_replication_survives_minority_crash():
    sim, nodes = make_cluster()
    sim.run_until_resolved(nodes["A"].elect_leader())
    nodes["C"].crash()
    slot = sim.run_until_resolved(nodes["A"].replicate("v"))
    assert slot == 1


def test_proposer_refused_by_its_own_acceptor_sends_nothing():
    sim, nodes = make_cluster()
    node = nodes["A"]
    network = node.network
    node.core.promised = (5, "Z-p")
    election = node.elect_leader()
    assert election.resolved and isinstance(election.exception, ProtocolError)
    assert network.messages_sent == 0
    # A leader whose own acceptor has since promised higher: no Accept.
    node.core.promised = (0, "")
    sim.run_until_resolved(node.elect_leader())
    sent = network.messages_sent
    node.core.promised = (node.core.ballot[0] + 5, "Z-p")
    future = node.replicate("v")
    assert future.resolved and isinstance(future.exception, ProtocolError)
    assert not node.is_leader
    sim.run(until=sim.now + 100)
    assert network.messages_sent == sent
