"""Fire order of the scheduler (tuple heap + zero-delay ready queue).

Events must fire in exactly ``(time, seq)`` order — the order a single
sorted queue would give — whichever of the two queues holds them. The
oracle is that sort, computed in the test from the events the workload
scheduled.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.process import Future
from repro.sim.simulator import Simulator


def _queued(sim: Simulator) -> int:
    """Entries still held by either queue, tombstones included."""
    return len(sim._heap) + len(sim._ready)


def _random_workload(sim: Simulator, trace: list, seed: int) -> list:
    """Schedule a deterministic tangle: mixed delays, zero-delay
    cascades, absolute-time ties, and cancellations. Returns every
    entry scheduled, including those scheduled while running, as
    ``(time, order, tag, handle)``: ``order`` is the scheduling order
    (the simulator's seq order) and ``handle`` the :class:`Event` that
    ``schedule`` returned, or None for a fire-and-forget ``schedule_at``."""
    rng = random.Random(seed)
    scheduled = []

    def fire(tag):
        trace.append((sim.now, tag))
        if rng.random() < 0.4:  # ready-queue cascade
            later(0.0, tag * 1000 + 1)
        if rng.random() < 0.3:
            later(rng.choice([0.0, 1.0, 2.5]), tag * 1000 + 2)

    def later(delay, tag):
        time = sim.now + delay
        event = sim.schedule(delay, fire, tag)
        scheduled.append((time, len(scheduled), tag, event))
        return event

    def at(when, tag):
        assert sim.schedule_at(when, fire, tag) is None
        scheduled.append((when, len(scheduled), tag, None))

    cancellable = []
    for i in range(200):
        event = later(rng.uniform(0.0, 50.0), i)
        if rng.random() < 0.5:
            cancellable.append(event)
        if rng.random() < 0.2:
            at(round(rng.uniform(0.0, 50.0)), -i)
    for event in cancellable[::2]:
        event.cancel()
    return scheduled


def _drain_by_run(sim: Simulator) -> None:
    sim.run()


def _drain_by_run_until_resolved(sim: Simulator) -> None:
    with pytest.raises(SimulationError, match="drained before"):
        sim.run_until_resolved(Future(sim))  # never resolves


def _sorted_order(scheduled: list) -> list:
    live = [
        (time, order, tag)
        for time, order, tag, event in scheduled
        if event is None or not event.cancelled
    ]
    return [(time, tag) for time, _order, tag in sorted(live)]


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_fire_order_is_time_then_seq(seed):
    # Every entry point to the event loop gives the same order.
    for drain in (_drain_by_run, _drain_by_run_until_resolved):
        sim = Simulator(seed=seed)
        trace: list = []
        scheduled = _random_workload(sim, trace, seed)
        drain(sim)
        assert trace == _sorted_order(scheduled), drain.__name__
        # both queues used, fire-and-forget entries among them
        events = [event for *_, event in scheduled if event is not None]
        assert {event.ready for event in events} == {True, False}
        assert any(event is None for *_, event in scheduled)
        assert _queued(sim) == 0


def test_run_until_advances_the_clock_to_the_bound():
    sim = Simulator(seed=3)
    trace: list = []
    _random_workload(sim, trace, 3)
    sim.run(until=20.0)
    assert sim.now == 20.0
    assert trace and all(time <= 20.0 for time, _tag in trace)
    assert _queued(sim) > 0
    sim.run(until=1_000.0)  # the queues drain first; the clock still advances
    assert _queued(sim) == 0
    assert sim.now == 1_000.0


def test_max_events_does_not_advance_the_clock():
    sim = Simulator(seed=3)
    trace: list = []
    _random_workload(sim, trace, 3)
    sim.run(until=20.0, max_events=5)
    assert len(trace) == sim.events_processed == 5
    assert sim.now == trace[-1][0] < 20.0


def test_run_until_resolved_stops_at_the_resolving_event():
    sim = Simulator(seed=3)
    trace: list = []
    scheduled = _random_workload(sim, trace, 3)
    future = Future(sim)
    sim.schedule_at(20.0, future.resolve, "done")
    assert sim.run_until_resolved(future) == "done"
    assert sim.now == 20.0
    assert trace and all(time <= 20.0 for time, _tag in trace)
    with pytest.raises(SimulationError, match="still pending after 3 events"):
        sim.run_until_resolved(Future(sim), max_events=3)
    sim.run()  # nothing was lost or fired twice across the three calls
    assert trace == _sorted_order(scheduled)


def test_zero_delay_interleaves_with_same_time_heap_event():
    """A schedule_at for the current instant with a smaller seq must
    fire before a later-scheduled zero-delay event."""
    sim = Simulator(seed=0)
    fired = []
    sim.schedule_at(0.0, fired.append, "heap-first")
    sim.schedule(0.0, fired.append, "ready-second")
    sim.run()
    assert fired == ["heap-first", "ready-second"]


def test_cancelled_ready_event_never_fires():
    sim = Simulator(seed=0)
    fired = []
    event = sim.schedule(0.0, fired.append, "doomed")
    sim.schedule(0.0, fired.append, "kept")
    event.cancel()
    sim.run()
    assert fired == ["kept"]
