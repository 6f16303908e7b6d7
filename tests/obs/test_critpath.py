"""The critical-path engine: decomposition, conservation, attribution.

Two layers of coverage: synthetic span trees whose correct
decomposition is computable by hand, and real traces from the
simulator — the canonical cross-DC demo commit and a commit that
survives leader failover (the view-change window must be attributed,
and conservation must still hold exactly).
"""

import pytest

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.obs import Observability, critpath
from repro.obs.demo import trace_commit_lifecycle
from repro.obs.spans import Span, SpanLog
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology


def _span(span_id, name, start, end, parent_id=None, trace_id=1):
    return Span(
        span_id=span_id,
        trace_id=trace_id,
        parent_id=parent_id,
        name=name,
        category=name.split(".")[0],
        start_ms=start,
        end_ms=end,
    )


# ----------------------------------------------------------------------
# Synthetic decompositions
# ----------------------------------------------------------------------
def test_deepest_span_wins_each_interval():
    spans = [
        _span(1, "commit", 0.0, 10.0),
        _span(2, "pbft.consensus", 1.0, 9.0, parent_id=1),
        _span(3, "pbft.prepare", 2.0, 5.0, parent_id=2),
    ]
    d = critpath.decompose(spans)
    assert d.segments["admission"] == pytest.approx(1.0)  # [0, 1)
    assert d.segments["pbft.dispatch"] == pytest.approx(1.0)  # [1, 2)
    assert d.segments["pbft.prepare"] == pytest.approx(3.0)  # [2, 5)
    assert d.segments["pbft.reply"] == pytest.approx(4.0)  # [5, 9)
    assert d.segments["finalize"] == pytest.approx(1.0)  # [9, 10)
    assert d.unattributed_ms == pytest.approx(0.0)


def test_conservation_is_exact_by_construction():
    spans = [
        _span(1, "commit", 0.0, 100.0),
        _span(2, "pbft.consensus", 10.0, 60.0, parent_id=1),
        _span(3, "pbft.prepare", 20.0, 30.0, parent_id=2),
        _span(4, "pbft.commit", 30.0, 55.0, parent_id=2),
    ]
    d = critpath.decompose(spans)
    total = sum(d.segments.values()) + d.unattributed_ms
    assert total == pytest.approx(d.end_to_end_ms)
    assert d.conservation_error_ms <= critpath.CONSERVATION_TOLERANCE_MS


def test_no_root_means_no_decomposition():
    spans = [_span(2, "pbft.consensus", 1.0, 9.0, parent_id=99)]
    assert critpath.decompose(spans) is None


def test_open_root_is_not_decomposed():
    spans = [_span(1, "commit", 0.0, None)]
    assert critpath.decompose(spans) is None


def test_completion_markers_extend_the_window():
    # receive.apply lands after the root closed: the window must
    # stretch to cover it, not clip it away.
    spans = [
        _span(1, "commit", 0.0, 4.0),
        _span(2, "receive.apply", 6.0, 6.0, parent_id=1),
    ]
    d = critpath.decompose(spans)
    assert d.end_ms == pytest.approx(6.0)
    assert d.end_to_end_ms == pytest.approx(6.0)
    # [4, 6) is covered by no span: surfaced as unattributed, not lost.
    assert d.unattributed_ms == pytest.approx(2.0)


def test_late_non_marker_work_is_clipped_out():
    # A backup daemon re-ships long after the commit completed; that
    # is availability work, not commit latency, so the window ignores
    # it entirely.
    spans = [
        _span(1, "commit", 0.0, 4.0),
        _span(2, "daemon.ship", 50.0, 55.0, parent_id=1),
    ]
    d = critpath.decompose(spans)
    assert d.end_ms == pytest.approx(4.0)
    assert "daemon.ship" not in d.segments


def test_remote_prefix_under_wan_transmit():
    spans = [
        _span(1, "commit", 0.0, 10.0),
        _span(2, "wan.transmit", 2.0, 8.0, parent_id=1),
        _span(3, "pbft.prepare", 3.0, 5.0, parent_id=2),
    ]
    d = critpath.decompose(spans)
    assert "remote.pbft.prepare" in d.segments
    assert d.segments["remote.pbft.prepare"] == pytest.approx(2.0)
    # wan.transmit itself never takes the remote. prefix.
    assert d.segments["wan.transmit"] == pytest.approx(4.0)


def test_zero_width_spans_never_win():
    spans = [
        _span(1, "commit", 0.0, 10.0),
        _span(2, "pbft.pre_prepare", 5.0, 5.0, parent_id=1),
    ]
    d = critpath.decompose(spans)
    assert "pbft.pre_prepare" not in d.segments
    assert d.segments["admission"] + d.segments.get(
        "finalize", 0.0
    ) == pytest.approx(10.0)


def test_attribute_report_shape_and_conservation():
    spans = [
        _span(1, "commit", 0.0, 10.0),
        _span(2, "pbft.consensus", 1.0, 9.0, parent_id=1),
    ]
    report = critpath.attribute(critpath.decompose_all(spans))
    assert report["ops"] == 1
    assert report["conservation"]["ok"] is True
    assert report["conservation"]["checked_ops"] == 1
    names = [entry["segment"] for entry in report["segments"]]
    assert names == sorted(names, key=critpath.segment_sort_key)
    total = sum(entry["total_ms"] for entry in report["segments"])
    assert total + report["unattributed"]["p50"] * 0 <= (
        report["end_to_end_ms"]["p50"] + 1e-9
    )


def test_attribute_empty_log_is_not_ok():
    report = critpath.attribute([])
    assert report["ops"] == 0
    assert report["conservation"]["ok"] is False


# ----------------------------------------------------------------------
# Real traces
# ----------------------------------------------------------------------
def test_demo_lifecycle_conserves_every_trace():
    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)
    decompositions = critpath.decompose_all(obs.spans)
    assert decompositions
    for d in decompositions:
        assert d.conservation_error_ms <= critpath.CONSERVATION_TOLERANCE_MS
    report = critpath.attribute(decompositions)
    assert report["conservation"]["ok"] is True
    # The cross-DC send's tail is dominated by the WAN hop.
    assert any(
        entry["segment"] == "wan.transmit" for entry in report["segments"]
    )


def _failover_commit(obs: Observability):
    """Crash the view-0 leader of A, then commit through the API
    (mirrors tests/obs/test_failover_trace.py)."""
    sim = Simulator(seed=5)
    obs.bind_clock(sim)
    deployment = BlockplaneDeployment(
        sim,
        symmetric_topology(["A", "B"], 20.0),
        BlockplaneConfig(f_independent=1),
        obs=obs,
    )
    deployment.unit("A").nodes[0].crash()
    future = deployment.api("A").log_commit("after-failover")
    position = sim.run_until_resolved(future, max_events=10_000_000)
    return deployment, position


def test_failover_commit_conserves_and_attributes_view_change():
    obs = Observability(enabled=True)
    _, position = _failover_commit(obs)
    assert position == 1

    decompositions = critpath.decompose_all(obs.spans)
    assert decompositions
    for d in decompositions:
        assert d.conservation_error_ms <= critpath.CONSERVATION_TOLERANCE_MS
        total = sum(d.segments.values()) + d.unattributed_ms
        assert total == pytest.approx(d.end_to_end_ms)

    # The view-change window appears as its own segment — the commit's
    # latency is attributed to failover, not smeared as unattributed.
    merged = {}
    for d in decompositions:
        for name, width in d.segments.items():
            merged[name] = merged.get(name, 0.0) + width
    assert merged.get("pbft.view_change", 0.0) > 0.0

    report = critpath.attribute(decompositions)
    assert report["conservation"]["ok"] is True
    assert (
        report["conservation"]["unattributed_p99_fraction"]
        <= critpath.UNATTRIBUTED_P99_BOUND
    )


def test_orphaned_subtree_still_decomposes():
    # Evict the root's early children out of a tiny ring buffer; the
    # trace must still decompose from its retained root without
    # raising, and nothing may be double-counted.
    log = SpanLog(max_spans=None)
    root = log.begin("commit", 0.0)
    child = log.begin(
        "pbft.consensus", 1.0,
        trace_id=root.trace_id, parent_id=root.span_id,
    )
    grand = log.begin(
        "pbft.prepare", 2.0,
        trace_id=root.trace_id, parent_id=999_999,  # evicted parent
    )
    log.end(grand, 3.0)
    log.end(child, 4.0)
    log.end(root, 5.0)
    d = critpath.decompose([s for s in log if s.trace_id == root.trace_id])
    assert d is not None
    total = sum(d.segments.values()) + d.unattributed_ms
    assert total == pytest.approx(d.end_to_end_ms)
