"""Exporters: JSON snapshot, Prometheus text, Chrome trace events.

Three renderings of one observability session:

* :func:`metrics_snapshot` — a plain-dict snapshot (JSON-serializable)
  of every counter, gauge, and histogram, for programmatic consumption
  and the ``metrics.json`` artifact;
* :func:`to_prometheus_text` — the Prometheus text exposition format
  (``# HELP``/``# TYPE`` plus sample lines), so a run's final state can
  be diffed or loaded into promtool;
* :func:`to_chrome_trace` — Chrome trace-event JSON (the
  ``traceEvents`` array form) loadable in ``chrome://tracing`` or
  Perfetto; every span becomes a complete (``"ph": "X"``) event on a
  (participant → pid, node → tid) track, with trace/span ids in
  ``args`` for correlation.

:func:`export_all` writes them, the journal snapshot and the console
bundle into a directory — the one artifact writer: ``python -m repro
--obs-out DIR`` and ``repro.chaos --obs-out`` both call it.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional

from repro.obs.hub import Observability

_INVALID_METRIC_CHARS: "re.Pattern" = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS: "re.Pattern" = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    """Sanitize to the Prometheus metric-name alphabet."""
    name = _INVALID_METRIC_CHARS.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _label_str(labels, extra: str = "") -> str:
    parts = [
        f'{_INVALID_LABEL_CHARS.sub("_", key)}="{_escape(value)}"'
        for key, value in labels
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


# ----------------------------------------------------------------------
# JSON snapshot
# ----------------------------------------------------------------------
def _scalar(metric: Any) -> Dict[str, Any]:
    return {
        "name": metric.name,
        "labels": dict(metric.labels),
        "value": metric.value,
    }


def metrics_snapshot(obs: Observability) -> Dict[str, Any]:
    """Snapshot every metric into a JSON-serializable dict."""
    registry = obs.registry
    snapshot: Dict[str, Any] = {
        "virtual_time_ms": obs.now,
        "counters": [_scalar(c) for c in registry.counters()],
        "gauges": [_scalar(g) for g in registry.gauges()],
        "histograms": [
            {
                "name": h.name,
                "labels": dict(h.labels),
                "count": h.count,
                "sum": h.sum,
                "mean": h.mean,
                "min": h.min if h.count else 0.0,
                "max": h.max if h.count else 0.0,
                "buckets": [
                    # +Inf is not valid JSON; encode as null.
                    [None if le == float("inf") else le, count]
                    for le, count in h.cumulative_buckets()
                ],
                "quantiles": {
                    "p50": h.quantile(0.50),
                    "p90": h.quantile(0.90),
                    "p99": h.quantile(0.99),
                },
                "window_ms": h.window_ms,
                "windows": [
                    {
                        "window": idx,
                        "count": window.count,
                        "mean": window.mean,
                        "p99": window.quantile(0.99),
                    }
                    for idx, window in sorted(h.windows.items())
                ],
            }
            for h in registry.histograms()
        ],
        "spans_recorded": len(obs.spans),
        "spans_dropped": obs.spans.dropped,
        "spans_orphaned": obs.spans.orphaned,
        "events_recorded": obs.journal.recorded,
        "events_retained": len(obs.journal),
        "events_dropped": obs.journal.dropped,
    }
    return snapshot


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def to_prometheus_text(obs: Observability) -> str:
    """Render every metric in the Prometheus text exposition format."""
    registry = obs.registry
    lines: List[str] = []
    seen_types: set = set()

    def _header(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for counter in registry.counters():
        name = _metric_name(counter.name)
        _header(name, "counter")
        lines.append(f"{name}{_label_str(counter.labels)} {_fmt(counter.value)}")
    for gauge in registry.gauges():
        name = _metric_name(gauge.name)
        _header(name, "gauge")
        lines.append(f"{name}{_label_str(gauge.labels)} {_fmt(gauge.value)}")
    for histogram in registry.histograms():
        name = _metric_name(histogram.name)
        _header(name, "histogram")
        for le, count in histogram.cumulative_buckets():
            le_label = 'le="' + _fmt(le) + '"'
            lines.append(
                f"{name}_bucket"
                f"{_label_str(histogram.labels, le_label)} {count}"
            )
        lines.append(
            f"{name}_sum{_label_str(histogram.labels)} {_fmt(histogram.sum)}"
        )
        lines.append(
            f"{name}_count{_label_str(histogram.labels)} {histogram.count}"
        )
        # Windowed histograms get a conformant per-window series
        # (``<name>_window_bucket{window="N",le=…}`` + ``_sum`` +
        # ``_count``) instead of being flattened to count/mean — stock
        # dashboards can histogram_quantile over a window directly.
        if histogram.window_ms is not None and histogram.windows:
            window_name = f"{name}_window"
            _header(window_name, "histogram")
            for index, window in sorted(histogram.windows.items()):
                window_label = f'window="{index}"'
                for le, count in window.cumulative_buckets():
                    extra = window_label + ',le="' + _fmt(le) + '"'
                    lines.append(
                        f"{window_name}_bucket"
                        f"{_label_str(histogram.labels, extra)} {count}"
                    )
                lines.append(
                    f"{window_name}_sum"
                    f"{_label_str(histogram.labels, window_label)} "
                    f"{_fmt(window.sum)}"
                )
                lines.append(
                    f"{window_name}_count"
                    f"{_label_str(histogram.labels, window_label)} "
                    f"{window.count}"
                )
    # Ring-buffer drop counters: always exported so silent eviction of
    # spans or journal events is visible to a scraper even when zero.
    # Orphaned spans (retained children of evicted parents) count as
    # dropped — their subtree can no longer be rooted correctly — and
    # are also broken out on their own series.
    for name, value in (
        ("obs_spans_dropped_total", obs.spans.dropped + obs.spans.orphaned),
        ("obs_spans_orphaned_total", obs.spans.orphaned),
        ("obs_events_dropped_total", obs.journal.dropped),
    ):
        _header(name, "counter")
        lines.append(f"{name} {_fmt(value)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def to_chrome_trace(obs: Observability) -> Dict[str, Any]:
    """Render the span log as Chrome trace-event JSON.

    Virtual milliseconds map to trace microseconds (``ts``/``dur``).
    Participants become processes and nodes become threads, with ``M``
    metadata events naming both; spans recorded without a node land on
    thread 0 of their participant.
    """
    events: List[Dict[str, Any]] = []
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}

    def _pid(participant: str) -> int:
        pid = pids.get(participant)
        if pid is None:
            pid = len(pids) + 1
            pids[participant] = pid
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": participant or "deployment"},
                }
            )
        return pid

    def _tid(participant: str, node: str) -> int:
        if not node:
            return 0
        key = (participant, node)
        tid = tids.get(key)
        if tid is None:
            tid = len([k for k in tids if k[0] == participant]) + 1
            tids[key] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _pid(participant),
                    "tid": tid,
                    "args": {"name": node},
                }
            )
        return tid

    for span in obs.spans:
        end = span.end_ms if span.end_ms is not None else span.start_ms
        args = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.args)
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": span.start_ms * 1000.0,  # µs
                "dur": (end - span.start_ms) * 1000.0,
                "pid": _pid(span.participant),
                "tid": _tid(span.participant, span.node),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Journal snapshot
# ----------------------------------------------------------------------
def journal_snapshot(obs: Observability) -> Dict[str, Any]:
    """Snapshot the flight-recorder journal into a JSON-ready dict.

    The header carries the eviction accounting (``dropped`` plus the
    first/last retained ``event_id``) so a consumer — the operator
    console in particular — can render an explicit "N events evicted
    before this window" banner instead of presenting a silently
    truncated replay as complete.
    """
    journal = obs.journal
    return {
        "recorded": journal.recorded,
        "retained": len(journal),
        "dropped": journal.dropped,
        "first_event_id": journal.first_event_id,
        "last_event_id": journal.last_event_id,
        "events": [event.to_dict() for event in journal],
    }


# ----------------------------------------------------------------------
# Artifact bundle
# ----------------------------------------------------------------------
def export_all(
    obs: Observability,
    directory: str,
    *,
    audit: Any = None,
    chaos: Any = None,
    title: Optional[str] = None,
) -> Dict[str, str]:
    """Write a session's artifacts into ``directory`` (created if
    needed): metrics.json / metrics.prom / trace.json / journal.json,
    and the console bundle of the same hub — ``console.json`` plus its
    rendered ``console.html``. ``audit``, ``chaos`` and ``title`` go to
    :func:`~repro.obs.console.bundle.build_bundle`. Returns name → path.
    """
    # The console package imports this module, so it is imported here.
    from repro.obs.console.bundle import (
        DEFAULT_TITLE,
        build_bundle,
        write_bundle,
    )
    from repro.obs.console.render import write_html

    os.makedirs(directory, exist_ok=True)
    paths = {
        name: os.path.join(directory, name)
        for name in (
            "metrics.json", "metrics.prom", "trace.json", "journal.json",
            "console.json", "console.html",
        )
    }
    with open(paths["metrics.json"], "w", encoding="utf-8") as fh:
        json.dump(metrics_snapshot(obs), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["metrics.prom"], "w", encoding="utf-8") as fh:
        fh.write(to_prometheus_text(obs))
    with open(paths["trace.json"], "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(obs), fh)
        fh.write("\n")
    with open(paths["journal.json"], "w", encoding="utf-8") as fh:
        json.dump(journal_snapshot(obs), fh)
        fh.write("\n")
    bundle = build_bundle(
        obs, audit=audit, chaos=chaos, title=title or DEFAULT_TITLE
    )
    write_bundle(bundle, paths["console.json"])
    write_html(bundle, paths["console.html"])
    return paths
