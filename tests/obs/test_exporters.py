"""Exporter validity: JSON snapshot, Prometheus text, Chrome trace, and
the artifact set ``export_all`` writes."""

import json
import re

from repro.obs import Observability
from repro.obs.console import build_bundle, render_html
from repro.obs.exporters import (
    export_all,
    metrics_snapshot,
    to_chrome_trace,
    to_prometheus_text,
)

#: One Prometheus sample line: name{labels} value  (labels optional).
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z0-9_]+=\"[^\"]*\""         # first label
    r"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"    # more labels
    r" (\+Inf|-Inf|[-+0-9.e]+)$"           # value
)
_PROM_TYPE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")


def _populated_obs() -> Observability:
    obs = Observability(enabled=True, histogram_window_ms=50.0)
    obs.counter("commits_total", participant="C").inc(3)
    obs.counter("net_bytes_total", link="C->V").inc(1024)
    obs.gauge("log_length", participant="C").value = 7.0
    hist = obs.histogram("commit_latency_ms", participant="C")
    for value, at in ((0.4, 1.0), (1.2, 60.0), (80.0, 120.0)):
        hist.observe(value, at=at)
    root = obs.begin_span("commit", participant="C", node="C-0")
    obs.complete_span(
        "pbft.prepare", 0.0, 0.5, obs.ctx_of(root),
        participant="C", node="C-0", seq=1,
    )
    obs.end_span(root, position=1)
    obs.begin_span("deployment.note")  # left open, participant-less
    return obs


# ----------------------------------------------------------------------
# JSON snapshot
# ----------------------------------------------------------------------
def test_snapshot_round_trips_through_json():
    obs = _populated_obs()
    snapshot = metrics_snapshot(obs)
    decoded = json.loads(json.dumps(snapshot))
    assert decoded == snapshot


def test_snapshot_contents():
    snapshot = metrics_snapshot(_populated_obs())
    counters = {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in snapshot["counters"]
    }
    assert counters[("commits_total", (("participant", "C"),))] == 3.0
    assert counters[("net_bytes_total", (("link", "C->V"),))] == 1024.0
    (hist,) = snapshot["histograms"]
    assert hist["count"] == 3
    assert hist["buckets"][-1][0] is None  # +Inf encoded as null
    assert hist["buckets"][-1][1] == 3     # cumulative total
    assert hist["window_ms"] == 50.0
    assert [w["window"] for w in hist["windows"]] == [0, 1, 2]
    assert snapshot["spans_recorded"] == 3


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def test_prometheus_text_parses_line_by_line():
    text = to_prometheus_text(_populated_obs())
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("#"):
            assert _PROM_TYPE.match(line), line
        else:
            assert _PROM_SAMPLE.match(line), line


def test_prometheus_histogram_series():
    text = to_prometheus_text(_populated_obs())
    lines = text.split("\n")
    buckets = [l for l in lines if l.startswith("commit_latency_ms_bucket")]
    assert any('le="+Inf"' in l for l in buckets)
    # Cumulative counts are monotone non-decreasing.
    counts = [float(l.rsplit(" ", 1)[1]) for l in buckets]
    assert counts == sorted(counts)
    assert counts[-1] == 3.0
    assert any(l.startswith("commit_latency_ms_sum") for l in lines)
    assert any(l.startswith("commit_latency_ms_count") for l in lines)
    # One TYPE header per metric name.
    type_lines = [l for l in lines if l.startswith("# TYPE")]
    assert len(type_lines) == len({l.split()[2] for l in type_lines})


# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------
def test_chrome_trace_round_trips_and_is_wellformed():
    trace = to_chrome_trace(_populated_obs())
    decoded = json.loads(json.dumps(trace))
    assert decoded == trace
    events = trace["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in spans} >= {"commit", "pbft.prepare"}
    for event in spans:
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert "trace_id" in event["args"]
        assert "span_id" in event["args"]
    # Metadata names every pid/tid used by span events.
    named_pids = {e["pid"] for e in meta if e["name"] == "process_name"}
    assert {e["pid"] for e in spans} <= named_pids
    # µs scaling: the pbft.prepare span is 0.5 ms == 500 µs.
    prepare = next(e for e in spans if e["name"] == "pbft.prepare")
    assert prepare["dur"] == 500.0


def test_chrome_trace_parent_links_preserved():
    obs = _populated_obs()
    trace = to_chrome_trace(obs)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    prepare = next(e for e in spans if e["name"] == "pbft.prepare")
    root = next(e for e in spans if e["name"] == "commit")
    assert prepare["args"]["parent_id"] == root["args"]["span_id"]
    assert prepare["args"]["trace_id"] == root["args"]["trace_id"]


# ----------------------------------------------------------------------
# Artifact bundle
# ----------------------------------------------------------------------
def test_export_all_writes_four_artifacts(tmp_path):
    obs = _populated_obs()
    paths = export_all(obs, str(tmp_path / "session"))
    assert sorted(paths) == [
        "console.html", "console.json",
        "journal.json", "metrics.json", "metrics.prom", "trace.json",
    ]
    snapshot = json.loads((tmp_path / "session" / "metrics.json").read_text())
    assert snapshot["counters"]
    trace = json.loads((tmp_path / "session" / "trace.json").read_text())
    assert trace["traceEvents"]
    prom = (tmp_path / "session" / "metrics.prom").read_text()
    assert "# TYPE" in prom
    journal = json.loads((tmp_path / "session" / "journal.json").read_text())
    assert journal["dropped"] == 0
    assert journal["recorded"] == len(journal["events"])


def test_export_all_console_bundle_is_build_bundle(tmp_path):
    # Every export writes the console bundle of its hub, and the page
    # rendered from it.
    obs = _populated_obs()
    paths = export_all(obs, str(tmp_path))
    with open(paths["console.json"], encoding="utf-8") as handle:
        written = json.load(handle)
    assert written == json.loads(json.dumps(build_bundle(obs)))
    with open(paths["console.html"], encoding="utf-8") as handle:
        assert handle.read() == render_html(build_bundle(obs))


def test_snapshot_and_prometheus_surface_drop_counters():
    obs = Observability(enabled=True, max_spans=2, max_events=2)
    for index in range(4):
        obs.end_span(obs.begin_span("s", participant="C"))
        obs.event("pbft.vote", participant="C", node=f"C-{index}")
    snapshot = metrics_snapshot(obs)
    assert snapshot["spans_dropped"] == 2
    assert snapshot["events_dropped"] == 2
    assert snapshot["events_recorded"] == 4
    assert snapshot["events_retained"] == 2
    text = to_prometheus_text(obs)
    assert "obs_spans_dropped_total 2.0" in text
    assert "obs_events_dropped_total 2.0" in text


def test_prometheus_per_window_histogram_series():
    text = to_prometheus_text(_populated_obs())
    lines = text.split("\n")
    # Windowed histograms additionally export one conformant
    # _bucket/_sum/_count family per window, labelled by window index.
    window_buckets = [
        l for l in lines
        if l.startswith("commit_latency_ms_window_bucket")
    ]
    assert window_buckets
    assert all('window="' in l for l in window_buckets)
    assert any('le="+Inf"' in l for l in window_buckets)
    # Three observations at t=1/60/120 with a 50 ms window: 3 windows.
    windows = {l.split('window="')[1].split('"')[0] for l in window_buckets}
    assert windows == {"0", "1", "2"}
    # Per-window cumulative counts are monotone within each window.
    for window in windows:
        counts = [
            float(l.rsplit(" ", 1)[1])
            for l in window_buckets
            if f'window="{window}"' in l
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 1.0
    assert any(
        l.startswith("commit_latency_ms_window_sum") for l in lines
    )
    assert any(
        l.startswith("commit_latency_ms_window_count") for l in lines
    )


def test_prometheus_orphan_counter_always_present():
    obs = Observability(enabled=True, max_spans=2)
    root = obs.begin_span("commit", participant="C")
    for index in range(3):  # churn the ring: the root gets evicted
        obs.end_span(
            obs.begin_span("child", ctx=obs.ctx_of(root), participant="C")
        )
    text = to_prometheus_text(obs)
    assert "obs_spans_orphaned_total" in text
    # Orphans count into the dropped total the dashboards alert on.
    snapshot = metrics_snapshot(obs)
    assert snapshot["spans_orphaned"] >= 1
