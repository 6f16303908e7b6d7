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
from array import array
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError


@dataclasses.dataclass(slots=True)
class ProtocolEvent:
    """One observed protocol fact — a copy built from the journal's
    columns on demand, so mutating it changes nothing stored.

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
    """Bounded, append-only columnar store of protocol facts; a
    :class:`ProtocolEvent` exists only while something reads one.

    Args:
        max_events: Ring-buffer capacity; the oldest events are evicted
            (and counted in :attr:`dropped`) once exceeded. ``None``
            means unbounded, for tests; ``0`` retains nothing.

    Subscribers registered with :meth:`subscribe` are invoked
    synchronously with each freshly recorded event — this is how the
    online auditor consumes the journal incrementally instead of
    depending on events surviving until the end of the run. Subscriber
    callbacks must themselves be passive with respect to the simulation
    (mutate only their own state).
    """

    def __init__(self, max_events: Optional[int] = 200_000) -> None:
        if max_events is not None and max_events < 0:
            raise ConfigurationError(
                f"max_events must be >= 0 or None, got {max_events}"
            )
        self._max = max_events
        # A retained event is a row across parallel columns, never an
        # object; ids are consecutive, so none are stored. Its header —
        # (kind, participant, node, arg names) — is an index into
        # ``_headers``: about one per (kind, node) pair in a run.
        self._header_ids: Dict[Tuple[str, str, str, tuple], int] = {}
        self._headers: List[Tuple[str, str, str, tuple]] = []
        self._header = array("I")
        self._at = array("d")
        self._values: List[Optional[tuple]] = []  # arg values
        self._traces: Dict[int, Tuple[int, int]] = {}  # by event id; rare
        self._head = 0  # evicted rows still at the front of the columns
        #: Total events ever recorded (including later-evicted ones);
        #: also the id of the newest event.
        self.recorded = 0
        #: Anything with a ``now`` attribute; the hub installs its
        #: simulator here (:meth:`Observability.bind_clock`). Unbound,
        #: a clock stopped at 0.0.
        self.clock: Any = SimpleNamespace(now=0.0)
        self._subscribers: List[Callable[[ProtocolEvent], None]] = []

    def __len__(self) -> int:
        return len(self._values) - self._head

    @property
    def dropped(self) -> int:
        """Events evicted from the ring buffer."""
        return self.recorded - len(self)

    def subscribe(self, callback: Callable[[ProtocolEvent], None]) -> None:
        """Invoke ``callback`` with every subsequently recorded event."""
        self._subscribers.append(callback)

    def header(self, kind: str, participant: str, node: str, names: tuple) -> int:
        """Intern one call site's header; return the id :meth:`record` takes."""
        key = (kind, participant, node, tuple(names))
        if key not in self._header_ids:
            self._header_ids[key] = len(self._headers)
            self._headers.append(key)
        return self._header_ids[key]

    def record(self, header_id: int, trace: Optional[tuple], values: tuple) -> None:
        """Append one event under a :meth:`header` id, its arg values in
        the header's name order: the hot-path write, one frame and no
        dict."""
        now = self.clock.now
        self._header.append(header_id)
        self._at.append(now)
        self._values.append(values)
        event_id = self.recorded = self.recorded + 1
        if trace is not None:
            self._traces[event_id] = trace
        cap = self._max
        if (cap is not None and event_id > cap) or self._subscribers:
            self._evict_and_publish(event_id, header_id, now, trace, values)

    def emit(
        self,
        kind: str,
        participant: str = "",
        node: str = "",
        trace: Optional[Tuple[int, int]] = None,
        **args: Any,
    ) -> None:
        """Append one event stamped with the clock's current time.

        The keyword form of :meth:`record` for cold call sites — bound
        as ``Observability.event``, one frame per fact. The call's
        ``args`` dict is split into header names and row values; an
        event object is built for subscribers only.
        """
        header = (kind, participant, node, tuple(args))
        try:
            header_id = self._header_ids[header]
        except KeyError:
            self._headers.append(header)
            header_id = self._header_ids[header] = len(self._headers) - 1
        now = self.clock.now
        self._header.append(header_id)
        self._at.append(now)
        values = tuple(args.values())
        self._values.append(values)
        event_id = self.recorded = self.recorded + 1
        if trace is not None:
            self._traces[event_id] = trace
        cap = self._max
        if (cap is not None and event_id > cap) or self._subscribers:
            self._evict_and_publish(event_id, header_id, now, trace, values)

    def _evict_and_publish(
        self, event_id: int, header_id: int, now: float, trace: Any, values: tuple
    ) -> None:
        """The cold half of both writes, run only once the ring is full
        or while a subscriber exists: release the oldest row (cutting the
        dead prefix off once it is an eighth of the ring), then hand
        every subscriber one event built from the new row."""
        cap = self._max
        if cap is not None and event_id > cap:
            head = self._head
            self._values[head] = None
            self._traces.pop(event_id - cap, None)
            self._head = head = head + 1
            if head > 64 + (cap >> 3):
                for column in (self._header, self._at, self._values):
                    del column[:head]
                self._head = 0
        if self._subscribers:
            kind, participant, node, names = self._headers[header_id]
            args = dict(zip(names, values))
            event = ProtocolEvent(event_id, kind, now, participant, node, trace, args)
            for callback in self._subscribers:
                callback(event)

    # ------------------------------------------------------------------
    # Queries (tests, exporters, offline audits)
    # ------------------------------------------------------------------
    @property
    def first_event_id(self) -> Optional[int]:
        """Id of the oldest *retained* event (None when empty). A value
        above 1 means the ring evicted everything before it — exporters
        surface this so a replay can say "N events evicted before this
        window" instead of silently truncating."""
        return self.recorded - len(self) + 1 if len(self) else None

    @property
    def last_event_id(self) -> Optional[int]:
        """Id of the newest retained event (None when empty)."""
        return self.recorded if len(self) else None

    def __iter__(self) -> Iterator[ProtocolEvent]:
        """Retained events in record order, built one at a time as the
        caller advances."""
        headers = self._headers
        values, traces = self._values, self._traces
        event_id = self.recorded - len(self)
        for row in range(self._head, len(values)):
            event_id += 1
            kind, participant, node, names = headers[self._header[row]]
            yield ProtocolEvent(
                event_id, kind, self._at[row], participant, node,
                traces.get(event_id), dict(zip(names, values[row])),
            )
