"""Work proof for the flight recorder's emit path and its store.

Wall-clock says whether ``obs.event`` got faster on this machine today;
these tests say *why*, deterministically: how many Python frames one
event costs, how many ``ProtocolEvent`` objects the write path builds,
and how many bytes the ring holds per retained event — against
:class:`ReferenceJournal`, the deque-of-``ProtocolEvent`` store the
columnar ring replaced, kept here as the oracle.
"""

import gc
import sys
import tracemalloc
from collections import deque
from types import SimpleNamespace

from repro.obs import EventJournal, Observability, ProtocolEvent
from repro.sim.simulator import Simulator

EVENTS = 50
RETAINED = 10_000


class ReferenceJournal:
    """One ``ProtocolEvent`` (owning its call's ``args`` dict) per
    retained event in a ``deque(maxlen=max_events)``."""

    def __init__(self, max_events=200_000):
        self._events = deque(maxlen=max_events)
        self.recorded = 0
        self.clock = SimpleNamespace(now=0.0)
        self._subscribers = []

    def __len__(self):
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def dropped(self):
        return self.recorded - len(self._events)

    def subscribe(self, callback):
        self._subscribers.append(callback)

    def emit(self, kind, participant="", node="", trace=None, **args):
        event_id = self.recorded = self.recorded + 1
        event = ProtocolEvent(
            event_id, kind, self.clock.now, participant, node, trace, args
        )
        self._events.append(event)
        for callback in self._subscribers:
            callback(event)
        return event

    @property
    def first_event_id(self):
        return self._events[0].event_id if self._events else None

    @property
    def last_event_id(self):
        return self._events[-1].event_id if self._events else None

    def events(self):
        return list(self._events)


def _bound_hub(**kwargs) -> Observability:
    obs = Observability(**kwargs)
    obs.bind_clock(Simulator(seed=0))
    return obs


def _vote(emit, seq, trace=None):
    return emit(
        "pbft.vote", participant="C", node="C-0", trace=trace,
        phase="prepare", view=0, seq=seq, digest="d", voter="C-1", src="C-1",
    )


def _profile_votes(obs):
    """Run EVENTS votes under ``sys.setprofile``; return the frames
    entered (Python-level ``call`` events only) and the last result."""
    frames = []

    def profiler(frame, event, _arg):
        if event == "call":
            frames.append(frame)

    result = None
    gc.disable()  # a collection would run other suites' gc callbacks here
    sys.setprofile(profiler)
    try:
        for seq in range(EVENTS):
            result = _vote(obs.event, seq)
    finally:
        sys.setprofile(None)
        gc.enable()
    # ``_vote`` itself is a frame per event; it is the caller, not the
    # cost of emitting.
    return [f for f in frames if f.f_code is not _vote.__code__], result


def test_one_event_costs_one_python_call():
    obs = _bound_hub(forensics=True)
    frames, result = _profile_votes(obs)
    # The emit frame alone — no ProtocolEvent.__init__, no clock
    # property, no hub -> journal hop.
    assert {f.f_code for f in frames} == {EventJournal.emit.__code__}
    assert len(frames) == EVENTS
    assert result is None
    assert obs.journal.recorded == EVENTS


def test_events_are_built_for_subscribers_only(monkeypatch):
    built = []
    init = ProtocolEvent.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProtocolEvent, "__init__", counting_init)
    journal = EventJournal()
    for seq in range(EVENTS):
        _vote(journal.emit, seq)
    assert built == []  # nothing read, nothing built

    seen = []
    journal.subscribe(seen.append)
    journal.subscribe(seen.append)
    for seq in range(EVENTS):
        _vote(journal.emit, seq)
    # One event per emit, shared by both subscribers.
    assert built == list(range(EVENTS + 1, 2 * EVENTS + 1))
    assert len(seen) == 2 * EVENTS and seen[0] is seen[1]


def _held_bytes(journal, trace=None):
    """Bytes ``tracemalloc`` sees ``journal`` gain over RETAINED votes
    whose ``seq`` is a fresh int object each, as a replica's is."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for seq in range(1000, 1000 + RETAINED):
            _vote(journal.emit, seq, trace and (seq, seq))
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_ring_holds_at_most_half_the_reference_bytes():
    reference = _held_bytes(ReferenceJournal())
    columnar = _held_bytes(EventJournal())
    assert columnar * 2 <= reference, (columnar, reference)


def test_evicted_rows_release_what_they_held():
    journal = EventJournal(max_events=7)
    held = _held_bytes(journal, trace=True)
    assert (len(journal), journal.dropped) == (7, RETAINED - 7)
    # Values, traces and the dead prefix of every column are all gone:
    # what is left is 7 rows plus one compaction chunk of slack.
    assert held < 6_144, held


def test_forensics_off_event_is_a_single_call_and_records_nothing():
    obs = _bound_hub(forensics=False)
    frames, result = _profile_votes(obs)
    assert len(frames) == EVENTS  # ``event`` itself, nothing beyond it
    assert result is None
    assert obs.journal.recorded == 0
