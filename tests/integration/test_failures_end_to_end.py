"""End-to-end failure scenarios across the full middleware stack."""

from repro.core import BlockplaneConfig
from repro.pbft.config import PBFTConfig

from tests.conftest import build_four_dc, build_pair, build_single_dc

FAST_PBFT = PBFTConfig(request_timeout_ms=20.0, view_change_timeout_ms=40.0)


def test_unit_leader_crash_mid_stream_commits_continue(sim):
    deployment = build_single_dc(
        sim, config=BlockplaneConfig(f_independent=1, pbft=FAST_PBFT)
    )
    api = deployment.api("DC")
    committed = []

    def workload():
        for index in range(10):
            if index == 5:
                deployment.unit("DC").nodes[0].crash()  # the leader
            position = yield api.log_commit(f"v{index}")
            committed.append(position)

    sim.run_until_resolved(sim.spawn(workload()), max_events=50_000_000)
    assert len(committed) == 10
    live = deployment.unit("DC").live_nodes()
    values = [
        [e.value for e in node.local_log] for node in live
    ]
    assert all(v == values[0] for v in values)
    assert set(f"v{i}" for i in range(10)).issubset(set(values[0]))


def test_replica_crash_and_recovery_catches_up_full_stack(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    victim = deployment.unit("DC").nodes[2]
    victim.crash()

    def workload():
        for index in range(5):
            yield api.log_commit(f"v{index}")

    sim.run_until_resolved(sim.spawn(workload()), max_events=20_000_000)
    victim.recover()
    sim.run(until=sim.now + 200)
    assert len(victim.local_log) == 5
    assert [e.value for e in victim.local_log] == [f"v{i}" for i in range(5)]


def test_wide_area_messaging_survives_receiver_node_crash(sim):
    deployment = build_pair(sim)
    # One receiver-unit node (a transmission fanout target) is down.
    deployment.unit("B").nodes[1].crash()
    got = []

    def receiver():
        message = yield deployment.api("B").receive("A")
        got.append(message)

    sim.spawn(receiver())
    sim.run_until_resolved(deployment.api("A").send("resilient", to="B"))
    sim.run(until=2000.0, max_events=50_000_000)
    assert got == ["resilient"]


def test_messages_committed_before_crash_recoverable_after(sim):
    deployment = build_pair(sim)
    api = deployment.api("A")

    def workload():
        yield api.log_commit("precious-state")

    sim.run_until_resolved(sim.spawn(workload()))
    sim.run(until=sim.now + 10)
    # The whole unit bounces (benign power cycle).
    unit = deployment.unit("A")
    unit.crash()
    sim.run(until=sim.now + 50)
    unit.recover()
    sim.run(until=sim.now + 200)
    for node in unit.nodes:
        assert [e.value for e in node.local_log] == ["precious-state"]


def test_sender_site_crash_after_send_message_still_delivered(sim):
    # Durability before transmission: once send() resolves, the message
    # is committed at f+1 honest nodes; even if the daemon's node dies
    # right after shipping, the message reaches the destination.
    deployment = build_pair(sim)
    got = []

    def receiver():
        message = yield deployment.api("B").receive("A")
        got.append(message)

    sim.spawn(receiver())
    sim.run_until_resolved(deployment.api("A").send("last-words", to="B"))
    sim.run(until=sim.now + 15)  # daemon ships within the local window
    deployment.unit("A").crash()
    sim.run(until=3000.0, max_events=50_000_000)
    assert got == ["last-words"]


def test_geo_deployment_full_bounce_of_secondary(sim):
    config = BlockplaneConfig(f_independent=1, f_geo=1)
    sets = {
        "C": ["C", "V", "O"],
        "V": ["C", "V", "O"],
        "O": ["C", "V", "O"],
        "I": ["I", "V", "C"],
    }
    deployment = build_four_dc(sim, config=config, replication_sets=sets)
    api = deployment.api("C")

    def workload(n, tag):
        for index in range(n):
            yield api.log_commit(f"{tag}-{index}")

    sim.run_until_resolved(sim.spawn(workload(3, "before")),
                           max_events=50_000_000)
    deployment.unit("O").crash()
    sim.run_until_resolved(sim.spawn(workload(3, "during")),
                           max_events=100_000_000)
    deployment.unit("O").recover()
    sim.run_until_resolved(sim.spawn(workload(3, "after")),
                           max_events=100_000_000)
    log = deployment.unit("C").gateway_node().local_log
    values = [e.value for e in log]
    for tag in ("before", "during", "after"):
        for index in range(3):
            assert f"{tag}-{index}" in values
