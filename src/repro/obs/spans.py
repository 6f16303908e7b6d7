"""Span-based tracing over virtual time.

A :class:`Span` is one named interval of a commit's lifecycle —
``commit``, ``pbft.prepare``, ``daemon.ship``, ``wan.transmit``,
``receive.apply`` — stamped with the participant and node it ran on.
Spans link into traces: every span carries a ``trace_id`` shared by the
whole logical commit and a ``parent_id`` pointing at the span that
caused it, so one cross-datacenter commit reads as a single tree from
the source's ``log-commit`` to the destination's receive-verification.

The log is append-only and bounded (``max_spans`` is a ring buffer so a
long traced run cannot grow without limit). Eviction is accounted for:
``dropped`` counts evicted spans and ``orphaned`` counts retained spans
whose parent was evicted (or was never retained), so tree consumers —
the critical-path engine, the console — can treat orphaned subtrees as
explicit roots instead of silently mis-rooting them. Like the metrics
registry, recording spans is passive — no events, no randomness — so
tracing can never change what a simulation does.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Any, Deque, Dict, Iterator, Optional

from repro.errors import ConfigurationError


@dataclasses.dataclass
class Span:
    """One interval in one trace.

    Attributes:
        span_id: Unique within the session.
        trace_id: The logical commit this span belongs to.
        parent_id: Causing span (None for roots).
        name: Phase name from the span taxonomy (docs/OBSERVABILITY.md).
        category: Coarse grouping for trace viewers ("api", "pbft",
            "daemon", "geo", "net").
        start_ms / end_ms: Virtual-time bounds; ``end_ms`` is None while
            the span is open.
        participant: Site the span ran at.
        node: Node id the span ran at ("" for deployment-level spans).
        args: Free-form annotations (record type, position, seq…).
    """

    span_id: int
    trace_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start_ms: float
    end_ms: Optional[float] = None
    participant: str = ""
    node: str = ""
    args: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (console bundles, archives)."""
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "participant": self.participant,
            "node": self.node,
            "args": dict(self.args),
        }


class SpanLog:
    """Bounded, append-only store of spans plus id allocation.

    Args:
        max_spans: Ring-buffer capacity; the oldest spans are dropped
            once exceeded (None = unbounded, for tests).
    """

    def __init__(self, max_spans: Optional[int] = 200_000) -> None:
        if max_spans is not None and max_spans < 0:
            raise ConfigurationError(
                f"max_spans must be >= 0 or None, got {max_spans}"
            )
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._next_span_id = 1
        self._next_trace_id = 1
        #: Spans evicted from the ring buffer (surfaced as
        #: ``spans_dropped`` in ``metrics_snapshot``).
        self.dropped = 0
        #: Retained spans whose parent is gone — evicted after the
        #: child was recorded, or appended after the parent had already
        #: been evicted. Monotonic, like ``dropped``.
        self.orphaned = 0
        # Eviction bookkeeping: which span ids are currently retained,
        # and how many *retained* children each retained parent has.
        self._retained_ids: set = set()
        self._child_counts: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def new_trace(self) -> int:
        """Allocate a fresh trace id (one per logical commit)."""
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        return trace_id

    def begin(
        self,
        name: str,
        at: float,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        category: str = "",
        participant: str = "",
        node: str = "",
        **args: Any,
    ) -> Span:
        """Open a span at virtual time ``at``. Allocates a new trace
        when ``trace_id`` is None (the span becomes a root)."""
        if trace_id is None:
            trace_id = self.new_trace()
        maxlen = self._spans.maxlen
        if maxlen and len(self._spans) == maxlen:
            self._evict(self._spans[0])
        span = Span(
            span_id=self._next_span_id,
            trace_id=trace_id,
            parent_id=parent_id,
            name=name,
            category=category or name.split(".", 1)[0],
            start_ms=at,
            participant=participant,
            node=node,
            args=dict(args) if args else {},
        )
        self._next_span_id += 1
        if maxlen == 0:
            self.dropped += 1  # nothing is retained, so nothing to link
            return span
        self._spans.append(span)
        self._retained_ids.add(span.span_id)
        if parent_id is not None:
            if parent_id in self._retained_ids:
                self._child_counts[parent_id] = (
                    self._child_counts.get(parent_id, 0) + 1
                )
            else:
                # Parent already evicted: the new span is orphaned from
                # the moment it is recorded.
                self.orphaned += 1
        return span

    def _evict(self, span: Span) -> None:
        """Account for the ring buffer pushing out its oldest span
        (the deque drops it on the subsequent append)."""
        self.dropped += 1
        self._retained_ids.discard(span.span_id)
        # Every retained child of the evicted span is now orphaned.
        self.orphaned += self._child_counts.pop(span.span_id, 0)
        parent_id = span.parent_id
        if parent_id is not None and parent_id in self._child_counts:
            remaining = self._child_counts[parent_id] - 1
            if remaining > 0:
                self._child_counts[parent_id] = remaining
            else:
                del self._child_counts[parent_id]

    def end(self, span: Span, at: float, **args: Any) -> Span:
        """Close an open span at virtual time ``at``."""
        if span.end_ms is None:
            span.end_ms = at
        if args:
            span.args.update(args)
        return span

    def complete(
        self,
        name: str,
        start: float,
        end: float,
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
        category: str = "",
        participant: str = "",
        node: str = "",
        **args: Any,
    ) -> Span:
        """Record a span whose bounds are already known (used for PBFT
        phases, which are reconstructed from slot timestamps when the
        slot executes)."""
        span = self.begin(
            name,
            start,
            trace_id=trace_id,
            parent_id=parent_id,
            category=category,
            participant=participant,
            node=node,
            **args,
        )
        span.end_ms = end
        return span
