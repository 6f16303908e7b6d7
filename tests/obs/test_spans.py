"""Unit tests for span tracing and the Observability hub."""

from repro.obs.hub import DISABLED, Observability
from repro.obs.spans import SpanLog
from repro.sim.simulator import Simulator


# ----------------------------------------------------------------------
# SpanLog
# ----------------------------------------------------------------------
def test_span_nesting_links_parent_and_trace():
    log = SpanLog(max_spans=None)
    root = log.begin("commit", 0.0, participant="C")
    child = log.begin(
        "pbft.consensus", 0.5,
        trace_id=root.trace_id, parent_id=root.span_id,
    )
    log.end(child, 2.0)
    log.end(root, 3.0)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert root.parent_id is None
    assert child.end_ms - child.start_ms == 1.5
    assert root.end_ms - root.start_ms == 3.0
    assert [s for s in log if s.trace_id == root.trace_id] == [root, child]


def test_span_ids_and_traces_unique():
    log = SpanLog()
    a = log.begin("x", 0.0)
    b = log.begin("y", 0.0)
    assert a.span_id != b.span_id
    assert a.trace_id != b.trace_id  # both roots → separate traces


def test_open_spans_and_end_idempotent():
    log = SpanLog()
    span = log.begin("x", 1.0)
    assert [s for s in log if s.end_ms is None] == [span]
    log.end(span, 2.0)
    log.end(span, 99.0)  # second end is a no-op
    assert span.end_ms == 2.0
    assert [s for s in log if s.end_ms is None] == []


def test_complete_records_bounded_span():
    log = SpanLog()
    span = log.complete("pbft.prepare", 1.0, 2.5, seq=7)
    assert span.start_ms == 1.0
    assert span.end_ms == 2.5
    assert span.args["seq"] == 7
    assert span.category == "pbft"


def test_span_ring_buffer_drops_oldest():
    log = SpanLog(max_spans=3)
    spans = [log.begin(f"s{i}", float(i)) for i in range(5)]
    assert len(log) == 3
    assert list(log) == spans[2:]
    assert [s for s in log if s.name == "s0"] == []
    assert [s for s in log if s.name == "s4"] == [spans[4]]


# ----------------------------------------------------------------------
# Observability hub
# ----------------------------------------------------------------------
def test_hub_clock_binding():
    obs = Observability()
    assert obs.now == 0.0
    sim = Simulator(seed=0)
    obs.bind_clock(sim)
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert obs.now == 5.0


def test_hub_spans_stamped_with_virtual_time():
    sim = Simulator(seed=0)
    obs = Observability()
    obs.bind_clock(sim)
    span = obs.begin_span("commit", participant="C", node="C-0")
    sim.schedule(7.0, lambda: obs.end_span(span, position=3))
    sim.run()
    assert span.start_ms == 0.0
    assert span.end_ms == 7.0
    assert span.args["position"] == 3


def test_hub_ctx_propagation():
    obs = Observability()
    root = obs.begin_span("commit")
    ctx = obs.ctx_of(root)
    assert ctx == (root.trace_id, root.span_id)
    child = obs.begin_span("pbft.consensus", ctx)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert obs.ctx_of(None) is None


def test_disabled_hub_records_nothing():
    assert not DISABLED.enabled
    assert not DISABLED.tracing
    assert DISABLED.begin_span("x") is None
    DISABLED.end_span(None)
    assert DISABLED.complete_span("x", 0.0, 1.0) is None
    assert len(DISABLED.spans) == 0


def test_tracing_can_be_off_with_metrics_on():
    obs = Observability(enabled=True, tracing=False)
    assert obs.enabled
    assert not obs.tracing
    assert obs.begin_span("x") is None
    obs.counter("c").inc()
    assert obs.counter("c").value == 1.0


def test_entry_trace_registration_first_wins():
    obs = Observability()
    obs.register_entry_trace("C", 1, (10, 20))
    obs.register_entry_trace("C", 1, (99, 99))  # later duplicate ignored
    assert obs.entry_trace("C", 1) == (10, 20)
    assert obs.entry_trace("C", 2) is None


def test_wan_span_open_close_and_duplicates():
    sim = Simulator(seed=0)
    obs = Observability()
    obs.bind_clock(sim)
    span = obs.begin_wan_span("C", "V", 1, None, node="C-0")
    assert span is not None
    again = obs.begin_wan_span("C", "V", 1, None)  # reserve re-ship
    assert again is span
    closed = obs.end_wan_span("C", "V", 1)
    assert closed is span
    assert span.end_ms is not None
    assert obs.end_wan_span("C", "V", 1) is None  # duplicate delivery


# ----------------------------------------------------------------------
# Eviction orphan accounting
# ----------------------------------------------------------------------
def test_evicting_a_parent_orphans_retained_children():
    log = SpanLog(max_spans=2)
    root = log.begin("commit", 0.0)
    log.begin(
        "pbft.consensus", 1.0,
        trace_id=root.trace_id, parent_id=root.span_id,
    )
    assert log.orphaned == 0
    # Third span evicts the root; its retained child becomes an orphan.
    log.begin(
        "pbft.prepare", 2.0,
        trace_id=root.trace_id, parent_id=root.span_id,
    )
    assert log.dropped == 1
    assert log.orphaned >= 1


def test_child_of_already_evicted_parent_counts_immediately():
    log = SpanLog(max_spans=None)
    root = log.begin("commit", 0.0)
    log.begin(
        "late.child", 1.0,
        trace_id=root.trace_id, parent_id=999_999,  # never retained
    )
    assert log.orphaned == 1


def test_orphan_counters_are_monotonic_under_churn():
    log = SpanLog(max_spans=3)
    first = log.begin("commit", 0.0)
    for index in range(10):
        log.begin(
            f"child-{index}", float(index + 1),
            trace_id=first.trace_id, parent_id=first.span_id,
        )
    assert log.dropped == 8  # 11 begun, 3 retained
    # Every retained child of the evicted root was orphaned exactly
    # once; counters never decrease as churn continues.
    before = log.orphaned
    log.begin("unrelated", 99.0)
    assert log.orphaned >= before
