"""The protocol flight recorder — a bounded structured event journal.

Where spans (:mod:`repro.obs.spans`) measure *durations*, the journal
records *protocol facts*: a vote was cast, a proof was rejected, a
daemon shipped a position, a reserve probed its peers. Each
:class:`ProtocolEvent` names the observing node, the acting node(s) in
its ``args``, and (when the surrounding operation was traced) the
``TraceCtx`` that causally links it to a commit's trace tree.

The journal is the evidence source for the online auditor
(:mod:`repro.obs.forensics`): misbehaviour findings cite journal events
verbatim, so every accusation is backed by something a node actually
observed on the wire — a signed vote, a failed MAC check, a missing
transmission — never by inference alone.

Like every part of ``repro.obs``, recording is passive: no events are
scheduled, no randomness is consumed, and timestamps come from the
hub's virtual clock. A journal-on run is bit-identical to a journal-off
run. The store is a ring buffer (``max_events``); evictions are counted
in :attr:`EventJournal.dropped` so silent data loss is visible in
``metrics_snapshot`` and the Prometheus export.

Event kinds follow a dotted ``layer.what`` taxonomy (``pbft.vote``,
``daemon.ship``, ``reserve.probe``…) documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from types import SimpleNamespace
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)


@dataclasses.dataclass(slots=True)
class ProtocolEvent:
    """One observed protocol fact.

    Attributes:
        event_id: Unique within the session, monotonically increasing
            in record order (survives ring-buffer eviction, so gaps in
            retained ids reveal exactly what was evicted).
        kind: Dotted taxonomy name, e.g. ``pbft.vote``.
        at_ms: Virtual time the observer recorded the fact.
        participant: Site of the observing node.
        node: The *observer* — the node at which the fact was seen.
            Acting nodes (voter, signer, leader…) live in ``args``.
        trace: Optional ``TraceCtx`` linking the event into a commit's
            trace tree.
        args: Structured payload; values must stay JSON-serialisable so
            evidence bundles round-trip.
    """

    event_id: int
    kind: str
    at_ms: float
    participant: str = ""
    node: str = ""
    trace: Optional[Tuple[int, int]] = None
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (evidence bundles, ``journal.json``)."""
        return {
            "event_id": self.event_id,
            "kind": self.kind,
            "at_ms": self.at_ms,
            "participant": self.participant,
            "node": self.node,
            "trace": list(self.trace) if self.trace is not None else None,
            "args": dict(self.args),
        }


class EventJournal:
    """Bounded, append-only store of :class:`ProtocolEvent`.

    Args:
        max_events: Ring-buffer capacity; the oldest events are evicted
            (and counted in :attr:`dropped`) once exceeded. ``None``
            means unbounded, for tests.

    Subscribers registered with :meth:`subscribe` are invoked
    synchronously with each freshly recorded event — this is how the
    online auditor consumes the journal incrementally instead of
    depending on events surviving until the end of the run. Subscriber
    callbacks must themselves be passive with respect to the simulation
    (mutate only their own state).
    """

    def __init__(self, max_events: Optional[int] = 200_000) -> None:
        self._events: Deque[ProtocolEvent] = deque(maxlen=max_events)
        #: Total events ever recorded (including later-evicted ones);
        #: also the id of the newest event.
        self.recorded = 0
        #: Anything with a ``now`` attribute; the hub installs its
        #: simulator here (:meth:`Observability.bind_clock`). Unbound,
        #: a clock stopped at 0.0.
        self.clock: Any = SimpleNamespace(now=0.0)
        self._subscribers: List[Callable[[ProtocolEvent], None]] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[ProtocolEvent]:
        return iter(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer."""
        return self.recorded - len(self._events)

    def subscribe(self, callback: Callable[[ProtocolEvent], None]) -> None:
        """Invoke ``callback`` with every subsequently recorded event."""
        self._subscribers.append(callback)

    def emit(
        self,
        kind: str,
        participant: str = "",
        node: str = "",
        trace: Optional[Tuple[int, int]] = None,
        **args: Any,
    ) -> ProtocolEvent:
        """Append one event stamped with the clock's current time.

        The journal's only write path, and — bound as
        ``Observability.event`` — the whole cost of one protocol fact:
        this frame plus ``ProtocolEvent.__init__``. The event takes
        ownership of the ``args`` dict the call just built.
        """
        event_id = self.recorded = self.recorded + 1
        event = ProtocolEvent(
            event_id, kind, self.clock.now, participant, node, trace, args
        )
        self._events.append(event)  # a full ring evicts its oldest
        if self._subscribers:
            for callback in self._subscribers:
                callback(event)
        return event

    def record(
        self,
        kind: str,
        at: float,
        participant: str = "",
        node: str = "",
        trace: Optional[Tuple[int, int]] = None,
        **args: Any,
    ) -> ProtocolEvent:
        """Append one event at an explicit virtual time ``at`` (tests,
        replays): :meth:`emit` under a clock pinned to ``at``."""
        clock = self.clock
        self.clock = SimpleNamespace(now=at)
        try:
            return self.emit(kind, participant, node, trace, **args)
        finally:
            self.clock = clock

    # ------------------------------------------------------------------
    # Queries (tests, exporters, offline audits)
    # ------------------------------------------------------------------
    @property
    def first_event_id(self) -> Optional[int]:
        """Id of the oldest *retained* event (None when empty). A value
        above 1 means the ring evicted everything before it — exporters
        surface this so a replay can say "N events evicted before this
        window" instead of silently truncating."""
        if not self._events:
            return None
        return self._events[0].event_id

    @property
    def last_event_id(self) -> Optional[int]:
        """Id of the newest retained event (None when empty)."""
        if not self._events:
            return None
        return self._events[-1].event_id

    def events(self) -> List[ProtocolEvent]:
        """All retained events in record order."""
        return list(self._events)

    def of_kind(self, kind: str) -> List[ProtocolEvent]:
        """Retained events of one kind, in record order."""
        return [e for e in self._events if e.kind == kind]

    def by_node(self, node: str) -> List[ProtocolEvent]:
        """Retained events observed at one node, in record order."""
        return [e for e in self._events if e.node == node]
