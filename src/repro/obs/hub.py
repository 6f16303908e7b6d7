"""The :class:`Observability` hub — one per deployment.

The hub bundles a :class:`~repro.obs.registry.MetricsRegistry` and a
:class:`~repro.obs.spans.SpanLog`, binds them to a simulator's virtual
clock, and carries the cross-component correlation state that lets a
trace follow one commit across nodes and datacenters:

* ``register_entry_trace`` maps a committed Local Log entry
  ``(participant, position)`` to its trace context, so the communication
  daemon and geo coordinator — which only see the entry — can attach
  their spans to the originating commit's trace;
* ``begin_wan_span``/``end_wan_span`` hold the in-flight wide-area
  transmission spans, opened at the shipping daemon and closed when the
  destination first receives the record.

Instrumented components hold an ``obs`` attribute that is *never* None:
when observability is off they share the module-level :data:`DISABLED`
hub, and every instrumentation site guards itself with a single
``if self.obs.enabled`` attribute check — the near-zero-overhead path
benchmarks run on.

A trace context travels as a plain ``(trace_id, parent_span_id)`` tuple
(``TraceCtx``) inside protocol messages; it is metadata only and is
never covered by digests or signatures.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

from repro.obs.journal import EventJournal
from repro.obs.registry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_MS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanLog

#: Trace context as carried inside messages: (trace_id, parent_span_id).
TraceCtx = Tuple[int, int]


class Observability:
    """Deployment-wide metrics + tracing session.

    Args:
        enabled: Master switch. When False every instrumentation site
            short-circuits on the first attribute check.
        tracing: Record spans (metrics-only sessions set this False).
        forensics: Record protocol events into the flight-recorder
            journal (:mod:`repro.obs.journal`).
        histogram_window_ms: Window size for virtual-time-windowed
            histograms created through :meth:`histogram` (None disables
            windowing).
        max_spans: Span ring-buffer capacity.
        max_events: Journal ring-buffer capacity.
        trace_sample_every: Commit-trace sampling stride — the API
            opens a root span for every Nth commit only (1 = trace all,
            the default). Sampling keeps sustained 100k-op runs inside
            a bounded span log while still giving the critical-path
            attributor thousands of complete trees; it is deterministic
            (a plain counter, no randomness).
    """

    def __init__(
        self,
        enabled: bool = True,
        tracing: bool = True,
        forensics: bool = True,
        histogram_window_ms: Optional[float] = None,
        max_spans: Optional[int] = 200_000,
        max_events: Optional[int] = 200_000,
        trace_sample_every: int = 1,
    ) -> None:
        if trace_sample_every < 1:
            raise ConfigurationError(
                f"trace_sample_every must be >= 1, got {trace_sample_every}"
            )
        self.enabled = enabled
        self.tracing = enabled and tracing
        self.forensics = enabled and forensics
        self.histogram_window_ms = histogram_window_ms
        self.trace_sample_every = trace_sample_every
        self.registry = MetricsRegistry()
        self.spans = SpanLog(max_spans=max_spans)
        self._max_spans = max_spans
        self.journal = EventJournal(max_events=max_events)
        if self.forensics:
            # The journal's append *is* the emit path: one frame per
            # protocol fact (the class-level ``event`` is the off case).
            self.event = self.journal.emit
        self._sim = self.journal.clock  # stopped at 0.0 until bound
        self._trace_seq = 0
        # participant -> {Local Log position -> trace}; pruned as that
        # participant's logs truncate (``forget_entry_traces``).
        self._entry_traces: Dict[str, Dict[int, TraceCtx]] = defaultdict(dict)
        # In-flight WAN hops, oldest first; capped like the span log so
        # records that are never received cannot accumulate.
        self._wan_spans: "OrderedDict[Tuple[str, str, int], Span]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def bind_clock(self, sim) -> None:
        """Attach the simulator whose virtual clock stamps everything.

        A deployment binds its simulator at construction; re-binding is
        legal (one hub may aggregate several sequential runs, as the
        ``--obs-out`` CLI flag does).
        """
        self._sim = self.journal.clock = sim

    @property
    def now(self) -> float:
        """Current virtual time (0.0 before a clock is bound)."""
        return self._sim.now

    # ------------------------------------------------------------------
    # Metrics pass-throughs
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        **labels: Any,
    ) -> Histogram:
        return self.registry.histogram(
            name, buckets=buckets,
            window_ms=self.histogram_window_ms, **labels,
        )

    # ------------------------------------------------------------------
    # Span helpers (all no-ops unless ``tracing``)
    # ------------------------------------------------------------------
    def sample_trace(self) -> bool:
        """Deterministic 1-in-``trace_sample_every`` decision for
        opening a commit's root span (False whenever tracing is off).
        The first commit is always sampled."""
        if not self.tracing:
            return False
        decision = self._trace_seq % self.trace_sample_every == 0
        self._trace_seq += 1
        return decision

    def begin_span(
        self,
        name: str,
        ctx: Optional[TraceCtx] = None,
        participant: str = "",
        node: str = "",
        **args: Any,
    ) -> Optional[Span]:
        """Open a span under ``ctx`` (or as a new trace root when
        ``ctx`` is None). Returns None when tracing is off."""
        if not self.tracing:
            return None
        trace_id, parent_id = ctx if ctx is not None else (None, None)
        return self.spans.begin(
            name, self.now, trace_id=trace_id, parent_id=parent_id,
            participant=participant, node=node, **args,
        )

    def end_span(self, span: Optional[Span], **args: Any) -> None:
        if span is not None:
            self.spans.end(span, self.now, **args)

    def complete_span(
        self,
        name: str,
        start: float,
        end: float,
        ctx: Optional[TraceCtx] = None,
        participant: str = "",
        node: str = "",
        **args: Any,
    ) -> Optional[Span]:
        """Record an already-bounded span under ``ctx``."""
        if not self.tracing:
            return None
        trace_id, parent_id = ctx if ctx is not None else (None, None)
        return self.spans.complete(
            name, start, end, trace_id=trace_id, parent_id=parent_id,
            participant=participant, node=node, **args,
        )

    @staticmethod
    def ctx_of(span: Optional[Span]) -> Optional[TraceCtx]:
        """The trace context children of ``span`` should carry."""
        if span is None:
            return None
        return (span.trace_id, span.span_id)

    # ------------------------------------------------------------------
    # Flight recorder (no-op unless ``forensics``)
    # ------------------------------------------------------------------
    def event(
        self,
        kind: str,
        participant: str = "",
        node: str = "",
        trace: Optional[TraceCtx] = None,
        **args: Any,
    ) -> None:
        """Journal one protocol fact observed at ``node``, stamped with
        the bound clock. On a forensics hub this name is bound to
        :meth:`EventJournal.emit`; what is left here is the off case —
        callers guard with ``if self.obs.forensics`` to keep the
        disabled path at a single attribute check."""

    # ------------------------------------------------------------------
    # Cross-component correlation
    # ------------------------------------------------------------------
    def register_entry_trace(
        self, participant: str, position: int, ctx: TraceCtx
    ) -> None:
        """Remember which trace committed Local Log entry
        ``(participant, position)`` (first registration wins)."""
        self._entry_traces[participant].setdefault(position, ctx)

    def entry_trace(self, participant: str, position: int) -> Optional[TraceCtx]:
        """Trace context of a committed entry, if it was traced."""
        return self._entry_traces[participant].get(position)

    def entry_traces(self, participant: str) -> Dict[int, TraceCtx]:
        """The live position -> trace map of one participant's Local
        Log; per-append readers hold it instead of asking per entry."""
        return self._entry_traces[participant]

    def forget_entry_traces(self, participant: str, before: int) -> None:
        """Drop the traces of entries below ``before`` — called when a
        Local Log of ``participant`` folds them away, which keeps the
        map within the log's retained window."""
        traces = self._entry_traces[participant]
        for position in [p for p in traces if p < before]:
            del traces[position]

    @property
    def correlations_retained(self) -> int:
        """Entry traces plus in-flight WAN spans currently held."""
        return len(self._wan_spans) + sum(
            len(traces) for traces in self._entry_traces.values()
        )

    def begin_wan_span(
        self,
        source: str,
        destination: str,
        position: int,
        ctx: Optional[TraceCtx],
        node: str = "",
    ) -> Optional[Span]:
        """Open the wide-area hop span for one transmission record; it
        stays open until the destination first sees the record."""
        if not self.tracing:
            return None
        key = (source, destination, position)
        span = self._wan_spans.get(key)
        if span is not None:
            return span  # reserve re-ship of an in-flight record
        span = self.begin_span(
            "wan.transmit", ctx, participant=source, node=node,
            destination=destination, position=position,
        )
        cap = self._max_spans
        if cap is not None and len(self._wan_spans) >= max(cap, 1):  # >= 1 open
            self._wan_spans.popitem(last=False)
        self._wan_spans[key] = span
        return span

    def end_wan_span(
        self, source: str, destination: str, position: int
    ) -> Optional[Span]:
        """Close the wide-area hop span at first reception (later
        duplicate deliveries are no-ops)."""
        span = self._wan_spans.pop((source, destination, position), None)
        if span is not None:
            self.end_span(span)
        return span


#: Shared no-op hub used as the default ``obs`` of every instrumented
#: component. Never bind a clock or record into this instance.
DISABLED = Observability(enabled=False)
