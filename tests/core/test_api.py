"""Tests for the user-space API: log_commit, send, receive, read."""

import pytest

from repro.core import BlockplaneConfig
from repro.core.records import RECORD_COMMUNICATION, RECORD_LOG_COMMIT
from repro.errors import ConfigurationError

from tests.conftest import build_four_dc, build_pair, build_single_dc


def test_log_commit_returns_sequential_positions(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    positions = []

    def work():
        for value in ("a", "b", "c"):
            position = yield api.log_commit(value)
            positions.append(position)

    sim.run_until_resolved(sim.spawn(work()))
    assert positions == [1, 2, 3]


def test_log_commit_replicates_to_all_unit_nodes(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    sim.run_until_resolved(api.log_commit("durable"))
    sim.run(until=sim.now + 10)
    for node in deployment.unit("DC").nodes:
        assert len(node.local_log) == 1
        assert node.local_log.read(1).value == "durable"
        assert node.local_log.read(1).record_type == RECORD_LOG_COMMIT


def test_send_appends_communication_record(sim):
    deployment = build_pair(sim)
    api = deployment.api("A")
    position = sim.run_until_resolved(api.send("hello", to="B"))
    sim.run(until=sim.now + 5)
    entry = deployment.unit("A").gateway_node().local_log.read(position)
    assert entry.record_type == RECORD_COMMUNICATION
    assert entry.destination == "B"


def test_send_to_self_rejected(sim):
    deployment = build_pair(sim)
    with pytest.raises(ConfigurationError):
        deployment.api("A").send("x", to="A")


def test_send_to_unknown_participant_rejected(sim):
    deployment = build_pair(sim)
    with pytest.raises(ConfigurationError):
        deployment.api("A").send("x", to="Z")


def test_send_receive_roundtrip(sim):
    deployment = build_pair(sim, rtt_ms=20.0)
    api_a = deployment.api("A")
    api_b = deployment.api("B")
    received = []

    def receiver():
        message = yield api_b.receive("A")
        received.append((message, sim.now))

    sim.spawn(receiver())
    sim.run_until_resolved(api_a.send("ping", to="B"))
    sim.run(until=200.0)
    assert received and received[0][0] == "ping"
    # one-way 10ms + local commits at both ends
    assert 10.0 < received[0][1] < 30.0


def test_receive_from_any_source(sim):
    deployment = build_four_dc(sim)
    api_v = deployment.api("V")
    got = []

    def receiver():
        for _ in range(2):
            message = yield api_v.receive()
            got.append(message)

    sim.spawn(receiver())
    deployment.api("C").send("from-C", to="V")
    deployment.api("O").send("from-O", to="V")
    sim.run(until=500.0)
    assert sorted(got) == ["from-C", "from-O"]


def test_messages_from_one_source_arrive_in_send_order(sim):
    deployment = build_pair(sim)
    api_a = deployment.api("A")
    api_b = deployment.api("B")
    got = []

    def receiver():
        while len(got) < 5:
            message = yield api_b.receive("A")
            got.append(message)

    sim.spawn(receiver())

    def sender():
        for index in range(5):
            yield api_a.send(f"m{index}", to="B")

    sim.spawn(sender())
    sim.run(until=1000.0)
    assert got == [f"m{index}" for index in range(5)]


def test_receive_blocks_until_message_arrives(sim):
    deployment = build_pair(sim)
    api_b = deployment.api("B")
    future = api_b.receive("A")
    sim.run(until=50.0)
    assert not future.resolved
    deployment.api("A").send("late", to="B")
    sim.run(until=200.0)
    assert future.resolved and future.result() == "late"


def test_log_length_reflects_commits(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    assert len(api.unit.gateway_node().local_log) == 0
    sim.run_until_resolved(api.log_commit("x"))
    assert len(api.unit.gateway_node().local_log) == 1


class TestAdmissionControl:
    def _deployment(self, sim, limit):
        return build_single_dc(
            sim, config=BlockplaneConfig(admission_max_in_flight=limit)
        )

    def test_window_sheds_excess_submissions(self, sim):
        from repro.errors import Overloaded

        api = self._deployment(sim, 1).api("DC")
        first = api.log_commit("a")
        with pytest.raises(Overloaded):
            api.log_commit("b")
        assert api.shed_total == 1
        assert api.in_flight == 1
        # Shedding happens before proposal: only the admitted value
        # commits.
        position = sim.run_until_resolved(first)
        assert position == 1
        assert len(api.unit.gateway_node().local_log) == 1

    def test_window_reopens_as_commits_settle(self, sim):
        api = self._deployment(sim, 1).api("DC")
        sim.run_until_resolved(api.log_commit("a"))
        assert api.in_flight == 0
        sim.run_until_resolved(api.log_commit("b"))
        assert len(api.unit.gateway_node().local_log) == 2

    def test_sends_count_against_the_same_window(self, sim):
        from repro.errors import Overloaded

        deployment = build_pair(
            sim, config=BlockplaneConfig(admission_max_in_flight=1)
        )
        api = deployment.api("A")
        pending = api.send("m1", to="B")
        with pytest.raises(Overloaded):
            api.log_commit("state")
        sim.run_until_resolved(pending)

    def test_zero_limit_means_unlimited(self, sim):
        api = self._deployment(sim, 0).api("DC")
        futures = [api.log_commit(f"v{i}") for i in range(32)]
        for future in futures:
            sim.run_until_resolved(future)
        assert api.shed_total == 0
        assert len(api.unit.gateway_node().local_log) == 32

    def test_negative_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockplaneConfig(admission_max_in_flight=-1)
