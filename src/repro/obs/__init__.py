"""``repro.obs`` — the deployment-wide observability subsystem.

The measurement backbone for every performance and robustness claim the
reproduction makes:

* :class:`~repro.obs.hub.Observability` — per-deployment hub bundling a
  metrics registry and a span log, bound to the simulator's virtual
  clock. Construct one with ``enabled=True`` and pass it to
  :class:`~repro.core.middleware.BlockplaneDeployment`; every layer
  (PBFT replicas, Local Logs, daemons, geo replication, the network)
  records into it. The default is a shared disabled hub whose only cost
  is one attribute check per instrumentation site.
* :class:`~repro.obs.registry.MetricsRegistry` with
  :class:`~repro.obs.registry.Counter`,
  :class:`~repro.obs.registry.Gauge`, and virtual-time-windowed
  :class:`~repro.obs.registry.Histogram`.
* :class:`~repro.obs.spans.SpanLog` /
  :class:`~repro.obs.spans.Span` — commit-lifecycle tracing with
  parent/child links across nodes and datacenters.
* :class:`~repro.obs.journal.EventJournal` /
  :class:`~repro.obs.journal.ProtocolEvent` — the protocol flight
  recorder: a bounded structured journal of protocol facts (votes,
  proofs, shipments, probes) that feeds the byzantine forensics layer
  (:mod:`repro.obs.forensics`: online auditor, misbehaviour
  attribution, detection-quality harness).
* Exporters (:mod:`repro.obs.exporters`): JSON snapshot, Prometheus
  text format, Chrome trace-event JSON (``chrome://tracing`` /
  Perfetto), journal JSON.

* :mod:`repro.obs.critpath` — critical-path latency attribution:
  folds each committed op's span tree into an ordered segment
  decomposition with a conservation invariant, computes per-segment
  percentile budgets and p99-tail dominance, and backs the console's
  latency panel.

Metric names, the span taxonomy, the segment taxonomy, and the journal
event taxonomy are documented in ``docs/OBSERVABILITY.md``.
"""

from repro.obs import critpath
from repro.obs.hub import DISABLED, Observability, TraceCtx
from repro.obs.journal import EventJournal, ProtocolEvent
from repro.obs.registry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_MS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import Span, SpanLog
from repro.obs.exporters import (
    export_all,
    journal_snapshot,
    metrics_snapshot,
    to_chrome_trace,
    to_prometheus_text,
)

__all__ = [
    "Observability",
    "DISABLED",
    "TraceCtx",
    "critpath",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Span",
    "SpanLog",
    "EventJournal",
    "ProtocolEvent",
    "metrics_snapshot",
    "to_prometheus_text",
    "to_chrome_trace",
    "journal_snapshot",
    "export_all",
]
