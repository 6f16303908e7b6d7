"""Tests for communication daemons and reserves."""

from repro.core import BlockplaneConfig
from repro.core.daemon import TRANSMISSION_RETRY_LIMIT

from tests.conftest import build_four_dc, build_pair


def retries(obs) -> float:
    """A->B retransmissions counted by A's communication daemon."""
    return obs.counter(
        "bp_transmission_retries_total", source="A", destination="B"
    ).value


def test_daemon_ships_committed_sends(sim, obs):
    deployment = build_pair(sim, obs=obs)
    sim.run_until_resolved(deployment.api("A").send("x", to="B"))
    sim.run(until=300.0)
    assert obs.counter(
        "bp_transmissions_total", source="A", destination="B"
    ).value >= 1
    log_b = deployment.unit("B").gateway_node().local_log
    assert any(entry.record_type == "received" for entry in log_b)


def test_daemon_attaches_chain_pointers(sim):
    deployment = build_pair(sim)

    def sender():
        api = deployment.api("A")
        yield api.send("m1", to="B")
        yield api.send("m2", to="B")

    sim.run_until_resolved(sim.spawn(sender()))
    sim.run(until=500.0)
    log_b = deployment.unit("B").gateway_node().local_log
    received = [e.value.record for e in log_b if e.record_type == "received"]
    assert received[0].prev_position is None
    assert received[1].prev_position == received[0].source_position


def test_per_destination_daemons_are_independent(sim):
    deployment = build_four_dc(sim)
    api_c = deployment.api("C")

    def sender():
        yield api_c.send("to-v", to="V")
        yield api_c.send("to-o", to="O")

    sim.run_until_resolved(sim.spawn(sender()))
    sim.run(until=1000.0)
    log_v = deployment.unit("V").gateway_node().local_log
    log_o = deployment.unit("O").gateway_node().local_log
    assert any(
        e.record_type == "received" and e.value.record.message == "to-v"
        for e in log_v
    )
    assert any(
        e.record_type == "received" and e.value.record.message == "to-o"
        for e in log_o
    )
    # Each log only received what was addressed to it.
    assert all(
        e.value.record.message != "to-o"
        for e in log_v
        if e.record_type == "received"
    )


def test_reserve_promotes_when_daemon_withholds(sim, obs):
    # Simulate a malicious/failed communication daemon by deactivating
    # the primary daemon after commit but before shipping.
    config = BlockplaneConfig(
        f_independent=1,
        reserve_poll_interval_ms=100.0,
        reserve_gap_threshold=0,
    )
    deployment = build_pair(sim, config=config, obs=obs)
    unit_a = deployment.unit("A")
    unit_a.daemons["B"].active = False  # the daemon goes rogue

    def sender():
        api = deployment.api("A")
        yield api.send("withheld", to="B")

    sim.run_until_resolved(sim.spawn(sender()))
    sim.run(until=2000.0)
    assert len([e for e in obs.journal if e.kind == "reserve.promoted"]) >= 1
    log_b = deployment.unit("B").gateway_node().local_log
    assert any(
        e.record_type == "received" and e.value.record.message == "withheld"
        for e in log_b
    )


def test_reserves_do_not_promote_when_daemon_healthy(sim, obs):
    config = BlockplaneConfig(
        f_independent=1,
        reserve_poll_interval_ms=50.0,
        reserve_gap_threshold=2,
    )
    deployment = build_pair(sim, config=config, obs=obs)

    def sender():
        api = deployment.api("A")
        for index in range(5):
            yield api.send(f"m{index}", to="B")

    sim.run_until_resolved(sim.spawn(sender()))
    sim.run(until=2000.0)
    assert [e for e in obs.journal if e.kind == "reserve.promoted"] == []


def test_duplicate_deliveries_from_promoted_reserve_are_harmless(sim):
    # Promotion re-ships everything above the trusted floor; the
    # receiver must deduplicate.
    config = BlockplaneConfig(
        f_independent=1,
        reserve_poll_interval_ms=100.0,
        reserve_gap_threshold=0,
    )
    deployment = build_pair(sim, config=config)

    def sender():
        api = deployment.api("A")
        yield api.send("m1", to="B")
        yield api.send("m2", to="B")

    sim.run_until_resolved(sim.spawn(sender()))
    sim.run(until=3000.0)
    log_b = deployment.unit("B").gateway_node().local_log
    received = [
        e.value.record.source_position
        for e in log_b
        if e.record_type == "received"
    ]
    assert len(received) == len(set(received)) == 2


def test_reserve_shipments_carry_geo_proofs(sim, obs):
    # With fg > 0, a reserve-promoted daemon must attach geo proofs to
    # the transmissions it re-ships (its host holds a passive
    # coordinator), or receivers would reject them.
    config = BlockplaneConfig(
        f_independent=1,
        f_geo=1,
        reserve_poll_interval_ms=100.0,
        reserve_gap_threshold=0,
    )
    deployment = build_four_dc(
        sim,
        config=config,
        replication_sets={
            "C": ["C", "V", "O"],
            "V": ["C", "V", "O"],
            "O": ["C", "V", "O"],
            "I": ["I", "V", "C"],
        },
        obs=obs,
    )
    deployment.unit("C").daemons["V"].active = False  # rogue daemon

    def sender():
        yield deployment.api("C").send("geo-via-reserve", to="V")

    sim.run_until_resolved(sim.spawn(sender()), max_events=100_000_000)
    sim.run(until=5000.0, max_events=100_000_000)
    assert len([e for e in obs.journal if e.kind == "reserve.promoted"]) >= 1
    log_v = deployment.unit("V").gateway_node().local_log
    delivered = [
        e.value
        for e in log_v
        if e.record_type == "received"
        and e.value.record.message == "geo-via-reserve"
    ]
    assert delivered and len(delivered[0].geo_proofs) >= 1


def test_transmission_survives_message_loss_via_reserves(sim):
    # Drop the first wide-area transmission attempts entirely; the
    # reserve path must eventually deliver.
    from repro.core.messages import TransmissionMessage
    from repro.sim.faults import FaultInjector

    config = BlockplaneConfig(
        f_independent=1,
        reserve_poll_interval_ms=100.0,
        reserve_gap_threshold=0,
    )
    deployment = build_pair(sim, config=config)
    injector = FaultInjector(sim, deployment.network)
    injector.tamper_matching(
        lambda src, dst, msg: isinstance(msg, TransmissionMessage),
        lambda _msg: None,
        start=0.0,
        end=400.0,
    )
    sim.run_until_resolved(deployment.api("A").send("lossy", to="B"))
    sim.run(until=3000.0)
    log_b = deployment.unit("B").gateway_node().local_log
    assert any(
        e.record_type == "received" and e.value.record.message == "lossy"
        for e in log_b
    )


def test_reserve_first_probes_are_staggered(sim):
    # Reserves derive a deterministic per-(node, destination) offset so
    # an entire unit's reserves never probe in lockstep.
    from repro.core.daemon import ReserveDaemon

    deployment = build_pair(sim)
    interval = deployment.config.reserve_poll_interval_ms
    delays = []
    node = deployment.unit("A").nodes[3]
    for destination in ("B", "B2", "B3"):
        captured = []
        original = node.set_timer
        node.set_timer = lambda delay, *a, **k: captured.append(delay)
        try:
            ReserveDaemon(node, destination)
        finally:
            node.set_timer = original
        delays.append(captured[0])
    assert len(set(delays)) == len(delays)
    for delay in delays:
        assert interval <= delay < 2 * interval


def test_retransmission_recovers_loss_without_reserves(sim, obs):
    # A transient WAN loss is healed by the ack-driven retry path alone;
    # the reserves never need to wake up.
    from repro.core.messages import TransmissionMessage
    from repro.sim.faults import FaultInjector

    config = BlockplaneConfig(
        f_independent=1,
        reserve_poll_interval_ms=60_000.0,
        reserve_gap_threshold=100,
    )
    deployment = build_pair(sim, config=config, obs=obs)
    injector = FaultInjector(sim, deployment.network)
    injector.tamper_matching(
        lambda src, dst, msg: isinstance(msg, TransmissionMessage),
        lambda _msg: None,
        start=0.0,
        end=250.0,
    )
    sim.run_until_resolved(deployment.api("A").send("retried", to="B"))
    sim.run(until=2_000.0)
    assert retries(obs) >= 1
    assert [e for e in obs.journal if e.kind == "reserve.promoted"] == []
    log_b = deployment.unit("B").gateway_node().local_log
    assert any(
        e.record_type == "received" and e.value.record.message == "retried"
        for e in log_b
    )


def test_retransmission_backs_off_and_gives_up(sim):
    # Under a permanent blackhole the retry schedule spaces out
    # exponentially and stops at the configured limit.
    from repro.core.messages import TransmissionMessage
    from repro.sim.faults import FaultInjector

    config = BlockplaneConfig(
        f_independent=1,
        reserve_poll_interval_ms=60_000.0,
        reserve_gap_threshold=100,
    )
    deployment = build_pair(sim, config=config)
    injector = FaultInjector(sim, deployment.network)
    attempts = set()  # send instants: every shipping attempt crosses the filter

    def blackhole(src, dst, msg):
        if isinstance(msg, TransmissionMessage):
            attempts.add(sim.now)
            return True
        return False

    injector.tamper_matching(blackhole, lambda _msg: None)
    sim.run_until_resolved(deployment.api("A").send("blackholed", to="B"))
    sim.run(until=10_000.0)
    sends = sorted(attempts)
    assert len(sends) == 1 + TRANSMISSION_RETRY_LIMIT
    gaps = [later - earlier for earlier, later in zip(sends, sends[1:])]
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
    # Budget exhausted: the daemon stopped tracking the record.
    assert deployment.unit("A").daemons["B"]._awaiting_ack == {}


def test_healthy_network_never_retransmits(sim, obs):
    deployment = build_pair(sim, obs=obs)

    def sender():
        api = deployment.api("A")
        for index in range(4):
            yield api.send(f"m{index}", to="B")

    sim.run_until_resolved(sim.spawn(sender()))
    sim.run(until=2_000.0)
    assert retries(obs) == 0
    assert deployment.unit("A").daemons["B"]._awaiting_ack == {}


def test_reserve_ignores_gap_claims_from_other_units(sim):
    # Regression: the node fans every GapResponse to all of its
    # reserves, so a reserve auditing B once recorded claims made by
    # members of OTHER units about their own reception — inflating the
    # trusted floor and hiding B's real gap.
    from repro.core.messages import GapResponse

    deployment = build_pair(sim)
    reserve = next(
        r for r in deployment.unit("A").reserves if r.destination == "B"
    )
    outsider = GapResponse(source_participant="A", last_source_position=15)
    reserve.handle_gap_response(outsider, "A-1")
    assert reserve._responses == {}
    member = GapResponse(source_participant="A", last_source_position=2)
    reserve.handle_gap_response(member, "B-1")
    assert reserve._responses == {"B-1": 2}


def test_retry_delay_grows_then_caps():
    from repro.core.daemon import retry_delay

    delays = [
        retry_delay(250.0, 2.0, attempts, 4_000.0, "A-0", "B")
        for attempt_count in [range(8)]
        for attempts in attempt_count
    ]
    # Strip jitter to compare the underlying schedule: each delay is
    # base*backoff^n stretched by at most 10%.
    for attempts, delay in enumerate(delays):
        uncapped = 250.0 * 2.0 ** attempts
        expected = min(uncapped, 4_000.0)
        assert expected <= delay <= expected * 1.1
    # The tail is capped: attempts 4.. all sit within 10% of the cap.
    assert all(delay <= 4_000.0 * 1.1 for delay in delays[4:])
    assert delays[1] > delays[0]


def test_retry_delay_zero_cap_disables_ceiling():
    from repro.core.daemon import retry_delay

    delay = retry_delay(250.0, 2.0, 10, 0.0, "A-0", "B")
    assert delay >= 250.0 * 2.0 ** 10


def test_retry_delay_jitter_is_deterministic_and_desynchronized():
    from repro.core.daemon import retry_delay

    again = [
        retry_delay(250.0, 2.0, 3, 4_000.0, "A-0", "B") for _ in range(3)
    ]
    assert len(set(again)) == 1
    spread = {
        retry_delay(250.0, 2.0, 3, 4_000.0, node, "B")
        for node in ("A-0", "A-1", "A-2", "A-3")
    }
    assert len(spread) > 1


def test_retry_cap_bounds_the_worst_case_gap(sim, monkeypatch):
    # With an aggressive backoff and no cap, the third re-ship would
    # wait 250 * 8^3 = 128s; the cap keeps every retry under ~1.1s so
    # a long outage cannot push the next attempt past the horizon.
    patch = "repro.core.daemon.TRANSMISSION_RETRY_"
    monkeypatch.setattr(patch + "BACKOFF", 8.0)
    monkeypatch.setattr(patch + "MAX_DELAY_MS", 1_000.0)
    monkeypatch.setattr(patch + "LIMIT", 4)
    deployment = build_pair(sim)
    from repro.sim.faults import FaultInjector

    injector = FaultInjector(sim, deployment.network)
    injector.partition(
        deployment.directory.unit_members("A"),
        deployment.directory.unit_members("B"),
        start=0.0,
        end=3_000.0,
    )
    deployment.api("A").send("stranded", to="B")
    sim.run(until=8_000.0)
    log_b = deployment.unit("B").gateway_node().local_log
    assert any(entry.record_type == "received" for entry in log_b)


def test_delivery_floor_tracks_unacked_communication(sim):
    deployment = build_pair(sim)
    daemon = deployment.unit("A").daemons["B"]
    assert daemon.delivery_floor() is None
    sim.run_until_resolved(deployment.api("A").send("m1", to="B"))
    sim.run(until=1_000.0)
    # Delivered and acked: nothing blocks truncation.
    assert daemon.delivery_floor() is None

    from repro.sim.faults import FaultInjector

    injector = FaultInjector(sim, deployment.network)
    injector.partition(
        deployment.directory.unit_members("A"),
        deployment.directory.unit_members("B"),
        start=sim.now,
        end=sim.now + 500.0,
    )
    future = deployment.api("A").send("m2", to="B")
    sim.run(until=sim.now + 400.0)
    floor = daemon.delivery_floor()
    assert floor is not None
    log_a = deployment.unit("A").gateway_node().local_log
    assert log_a.read(floor).record_type == "communication"
    sim.run_until_resolved(future)
    sim.run(until=sim.now + 2_000.0)
    assert daemon.delivery_floor() is None
