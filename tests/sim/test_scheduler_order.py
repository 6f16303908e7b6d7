"""Fire order of the scheduler (tuple heap + zero-delay ready queue).

Events must fire in exactly ``(time, seq)`` order — the order a single
sorted queue would give — whichever of the two queues holds them. The
oracle is that sort, computed in the test from the events the workload
scheduled.
"""

import random

import pytest

from repro.sim.simulator import Simulator


def _random_workload(sim: Simulator, trace: list, seed: int) -> list:
    """Schedule a deterministic tangle: mixed delays, zero-delay
    cascades, absolute-time ties, and cancellations. Returns every
    ``(event, tag)`` scheduled, including those scheduled while running."""
    rng = random.Random(seed)
    scheduled = []

    def fire(tag):
        trace.append((sim.now, tag))
        if rng.random() < 0.4:  # ready-queue cascade
            later(sim.schedule, 0.0, tag * 1000 + 1)
        if rng.random() < 0.3:
            later(sim.schedule, rng.choice([0.0, 1.0, 2.5]), tag * 1000 + 2)

    def later(schedule, when, tag):
        event = schedule(when, fire, tag)
        scheduled.append((event, tag))
        return event

    cancellable = []
    for i in range(200):
        event = later(sim.schedule, rng.uniform(0.0, 50.0), i)
        if rng.random() < 0.5:
            cancellable.append(event)
        if rng.random() < 0.2:
            later(sim.schedule_at, round(rng.uniform(0.0, 50.0)), -i)
    for event in cancellable[::2]:
        event.cancel()
    return scheduled


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_fire_order_is_time_then_seq(seed):
    sim = Simulator(seed=seed)
    trace: list = []
    scheduled = _random_workload(sim, trace, seed)
    sim.run()
    live = [(e.time, e.seq, tag) for e, tag in scheduled if not e.cancelled]
    assert trace == [(time, tag) for time, _seq, tag in sorted(live)]
    assert {e.ready for e, _ in scheduled} == {True, False}  # both queues used


def test_run_until_advances_the_clock_to_the_bound():
    sim = Simulator(seed=3)
    trace: list = []
    _random_workload(sim, trace, 3)
    sim.run(until=20.0)
    assert sim.now == 20.0
    assert trace and all(time <= 20.0 for time, _tag in trace)
    assert sim.pending_events > 0


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
