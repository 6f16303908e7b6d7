"""PBFT normal-case tests: ordering, agreement, replies, quorums."""

import pytest

from repro.errors import ProtocolError
from repro.pbft.replica import PBFTReplica
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.topology import single_dc_topology

from tests.pbft.helpers import assert_honest_agreement, commit_values, make_group


def test_single_commit_executes_on_all_replicas():
    sim, replicas = make_group()
    entries = commit_values(sim, replicas[0], ["v1"])
    assert entries[0].seq == 1
    assert entries[0].value == "v1"
    sim.run(until=sim.now + 10)
    assert_honest_agreement(replicas, expected_length=1)


def test_sequential_commits_are_ordered():
    sim, replicas = make_group()
    entries = commit_values(sim, replicas[0], [f"v{i}" for i in range(10)])
    assert [e.seq for e in entries] == list(range(1, 11))
    sim.run(until=sim.now + 10)
    assert_honest_agreement(replicas, expected_length=10)


def test_submit_from_non_leader_forwards_to_leader():
    sim, replicas = make_group()
    entries = commit_values(sim, replicas[2], ["from-follower"])
    assert entries[0].value == "from-follower"
    sim.run(until=sim.now + 10)
    assert_honest_agreement(replicas, expected_length=1)


def test_concurrent_submissions_all_commit():
    sim, replicas = make_group()
    futures = [
        replicas[0].submit(f"a{i}") for i in range(5)
    ] + [replicas[1].submit(f"b{i}") for i in range(5)]
    for future in futures:
        sim.run_until_resolved(future, max_events=10_000_000)
    sim.run(until=sim.now + 10)
    assert_honest_agreement(replicas, expected_length=10)
    values = {e.value for e in replicas[0].executed_entries}
    assert values == {f"a{i}" for i in range(5)} | {f"b{i}" for i in range(5)}


def test_group_size_arithmetic():
    _sim, replicas = make_group(n=7)
    assert replicas[0].engine.n == 7
    assert replicas[0].engine.f == 2


def test_too_small_group_rejected():
    sim = Simulator()
    network = Network(sim, single_dc_topology("DC"))
    with pytest.raises(ProtocolError):
        PBFTReplica(sim, network, "a", "DC", ["a", "b", "c"])


def test_node_missing_from_peer_list_rejected():
    sim = Simulator()
    network = Network(sim, single_dc_topology("DC"))
    with pytest.raises(ProtocolError):
        PBFTReplica(sim, network, "x", "DC", ["a", "b", "c", "d"])


def test_commit_survives_f_crashed_replicas():
    sim, replicas = make_group()
    replicas[3].crash()  # one of four may fail
    entries = commit_values(sim, replicas[0], ["v1", "v2"])
    assert len(entries) == 2
    live = replicas[:3]
    sim.run(until=sim.now + 10)
    assert_honest_agreement(live, expected_length=2)


def test_commit_stalls_beyond_f_crashes_until_recovery():
    sim, replicas = make_group(
        config=None,
    )
    replicas[2].crash()
    replicas[3].crash()  # two of four: beyond f=1
    future = replicas[0].submit("stuck")
    sim.run(until=30.0)
    assert not future.resolved
    replicas[2].recover()
    sim.run_until_resolved(future, max_events=10_000_000)
    assert future.result().value == "stuck"


def test_record_type_annotation_carried_through():
    sim, replicas = make_group()
    future = replicas[0].submit("msg", record_type="communication",
                                meta={"destination": "B"})
    entry = sim.run_until_resolved(future)
    assert entry.record_type == "communication"
    assert entry.meta == {"destination": "B"}


def test_duplicate_request_not_committed_twice():
    sim, replicas = make_group()
    commit_values(sim, replicas[0], ["v1"])
    # Re-dispatch the same request id (simulating a client retry).
    replicas[0].engine._dispatch_request(("r0", 1))
    sim.run(until=sim.now + 20)
    assert_honest_agreement(replicas, expected_length=1)


def test_execution_chain_digests_agree():
    sim, replicas = make_group()
    commit_values(sim, replicas[0], ["a", "b", "c"])
    sim.run(until=sim.now + 10)
    chains = {replica.engine._exec_chain for replica in replicas}
    assert len(chains) == 1
