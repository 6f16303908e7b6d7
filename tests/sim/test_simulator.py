"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "middle")
    sim.run()
    assert fired == ["early", "middle", "late"]
    assert sim.now == 5.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []
    for index in range(10):
        sim.schedule(1.0, fired.append, index)
    sim.run()
    assert fired == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    event.cancel()
    sim.run()
    assert fired == ["kept"]


def test_run_until_advances_clock_without_firing_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "later")
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == ["later"]


def test_run_max_events_bound():
    sim = Simulator()
    fired = []
    for index in range(100):
        sim.schedule(float(index), fired.append, index)
    sim.run(max_events=10)
    assert len(fired) == 10


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_seeded_rng_is_deterministic():
    values_a = [Simulator(seed=7).rng.random() for _ in range(3)]
    values_b = [Simulator(seed=7).rng.random() for _ in range(3)]
    assert values_a == values_b


def test_run_on_an_empty_simulator_fires_nothing():
    sim = Simulator()
    sim.run(max_events=1)
    assert sim.events_processed == 0
    assert sim.now == 0.0


def test_pending_events_counts_uncancelled():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    assert sim.events_cancelled == 0
    event.cancel()
    assert sim.events_cancelled == 1
    sim.run()
    assert fired == ["kept"]
    assert sim.events_processed == 1


@pytest.mark.parametrize("delay", [-0.1, float("nan"), float("-inf")])
def test_schedule_rejects_a_delay_that_is_not_non_negative(delay):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(delay, lambda: None)
    assert sim.now == 0.0


@pytest.mark.parametrize("when", [float("nan"), float("-inf"), -1.0])
def test_schedule_at_rejects_a_time_that_is_not_at_or_after_now(when):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_at(when, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0


def test_run_until_resolved_raises_on_drained_heap():
    from repro.sim.process import Future

    sim = Simulator()
    future = Future(sim)
    with pytest.raises(SimulationError):
        sim.run_until_resolved(future)
