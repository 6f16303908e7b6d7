"""Simulator heap hygiene: cancellation counts and tombstone compaction,
observed through ``events_cancelled``, ``compactions`` and the queue
lengths."""

from repro.sim.simulator import Simulator


def _noop() -> None:
    pass


def _queued(sim: Simulator) -> int:
    """Entries still held by either queue, tombstones included."""
    return len(sim._heap) + len(sim._ready)


class TestPendingEventsCounter:
    def test_pending_events_tracks_schedule_and_cancel(self):
        sim = Simulator(seed=1)
        events = [sim.schedule(float(i), _noop) for i in range(10)]
        assert (_queued(sim), sim.events_cancelled) == (10, 0)
        events[3].cancel()
        events[7].cancel()
        # Below the compaction floor the tombstones stay queued.
        assert (_queued(sim), sim.events_cancelled) == (10, 2)
        # Double-cancel is a no-op on the counters.
        events[3].cancel()
        assert sim.events_cancelled == 2
        sim.run()
        assert sim.events_processed == 8

    def test_pending_events_drains_to_zero(self):
        sim = Simulator(seed=1)
        for i in range(25):
            sim.schedule(float(i), _noop)
        sim.run()
        assert sim.events_processed == 25
        assert _queued(sim) == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator(seed=1)
        event = sim.schedule(1.0, _noop)
        keeper = sim.schedule(2.0, _noop)
        sim.run()
        # Firing cleared ownership; a late cancel cannot corrupt counts.
        event.cancel()
        keeper.cancel()
        assert sim.events_cancelled == 0
        assert sim.events_processed == 2


class TestTombstoneCompaction:
    def test_mass_cancellation_compacts_heap(self):
        """Cancelling 10k of 10k+1 events must shrink the heap without
        waiting for the pop path to reach the tombstones."""
        sim = Simulator(seed=1)
        doomed = [sim.schedule(1_000.0 + i, _noop) for i in range(10_000)]
        survivor = sim.schedule(5.0, _noop)
        assert _queued(sim) == 10_001
        for event in doomed:
            event.cancel()
        assert sim.events_cancelled == 10_000
        assert sim.compactions >= 1
        # Compaction rebuilt the heap down to the live population plus
        # at most one sub-threshold tail of fresh tombstones.
        assert _queued(sim) < 1 + Simulator.COMPACT_MIN_TOMBSTONES
        fired = []
        sim.schedule_at(6.0, fired.append, "ran")
        sim.run()
        assert fired == ["ran"]
        # The survivor fired; firing detached it from the simulator.
        assert not survivor.cancelled
        assert survivor.owner is None
        assert sim.events_processed == 2
        assert _queued(sim) == 0

    def test_compaction_preserves_order_and_liveness(self):
        sim = Simulator(seed=1)
        fired = []
        keep = []
        for i in range(2_000):
            event = sim.schedule(float(i), fired.append, i)
            if i % 10 == 0:
                keep.append(i)
            else:
                event.cancel()
        sim.run()
        assert fired == keep

    def test_no_compaction_below_threshold(self):
        sim = Simulator(seed=1)
        events = [sim.schedule(float(i), _noop) for i in range(100)]
        for event in events[: Simulator.COMPACT_MIN_TOMBSTONES - 1]:
            event.cancel()
        assert sim.compactions == 0

    def test_pending_events_is_constant_time(self):
        """Compaction keeps the heap close to its live population:
        after a cancellation burst, tombstones never exceed half the
        heap."""
        sim = Simulator(seed=1)
        events = [sim.schedule(float(i), _noop) for i in range(10_000)]
        for event in events[::2]:
            event.cancel()
        live = 10_000 - sim.events_cancelled
        assert live == 5_000
        assert _queued(sim) - live <= _queued(sim) / 2

    def test_max_events_fires_next_live_event_past_tombstones(self):
        """``run(max_events=1)`` must fire exactly the next live event
        even when the heap top is a pile of tombstones."""
        sim = Simulator(seed=1)
        fired = []
        doomed = [sim.schedule(1.0 + i * 0.001, fired.append, -1) for i in range(50)]
        sim.schedule(10.0, fired.append, 1)
        sim.schedule(20.0, fired.append, 2)
        for event in doomed:
            event.cancel()
        sim.run(max_events=1)
        assert fired == [1]
        assert sim.now == 10.0
        sim.run(max_events=1)
        assert fired == [1, 2]
        sim.run(max_events=1)
        assert fired == [1, 2]
        assert sim.events_processed == 2
