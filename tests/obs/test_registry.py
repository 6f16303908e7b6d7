"""Unit tests for the metrics registry primitives."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import (
    Counter,
    DEFAULT_LATENCY_BUCKETS_MS,
    Gauge,
    Histogram,
    MetricsRegistry,
)


# ----------------------------------------------------------------------
# Counter
# ----------------------------------------------------------------------
def test_counter_accumulates():
    registry = MetricsRegistry()
    counter = registry.counter("commits_total", participant="C")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    counter = registry.counter("commits_total")
    counter.inc(1.0)
    with pytest.raises(ConfigurationError):
        counter.inc(-1.0)
    assert counter.value == 1.0  # unchanged after the rejected call


def test_counter_zero_increment_is_legal():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    counter.inc(0.0)
    assert counter.value == 0.0


# ----------------------------------------------------------------------
# Gauge
# ----------------------------------------------------------------------
# ----------------------------------------------------------------------
# Histogram
# ----------------------------------------------------------------------
def test_histogram_bucketing_upper_bounds_inclusive():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms", buckets=(1.0, 5.0, 10.0))
    for value in (0.5, 1.0, 3.0, 10.0, 99.0):
        hist.observe(value)
    # le-inclusive Prometheus semantics: 1.0 lands in the le=1 bucket,
    # 10.0 in le=10, 99.0 in +Inf.
    assert hist.bucket_counts == [2, 1, 1, 1]
    assert hist.cumulative_buckets() == [
        (1.0, 2), (5.0, 3), (10.0, 4), (float("inf"), 5),
    ]
    assert hist.count == 5
    assert hist.sum == pytest.approx(113.5)
    assert hist.min == 0.5
    assert hist.max == 99.0
    assert hist.mean == pytest.approx(113.5 / 5)


def test_histogram_rejects_unsorted_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ConfigurationError):
        registry.histogram("bad", buckets=(5.0, 1.0))
    with pytest.raises(ConfigurationError):
        registry.histogram("dup", buckets=(1.0, 1.0))


def test_histogram_windowing_by_virtual_time():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms", window_ms=100.0)
    hist.observe(1.0, at=0.0)
    hist.observe(3.0, at=99.9)
    hist.observe(10.0, at=100.0)
    hist.observe(20.0, at=250.0)
    assert [
        (index, window.count, window.mean)
        for index, window in sorted(hist.windows.items())
    ] == [
        (0, 2, pytest.approx(2.0)),
        (1, 1, pytest.approx(10.0)),
        (2, 1, pytest.approx(20.0)),
    ]


def test_histogram_unwindowed_ignores_time():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms")
    hist.observe(1.0, at=123.0)
    assert hist.windows == {}


def test_histogram_rejects_nonpositive_window():
    registry = MetricsRegistry()
    with pytest.raises(ConfigurationError):
        registry.histogram("w", window_ms=0.0)


def test_default_buckets_are_ascending():
    assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(
        set(DEFAULT_LATENCY_BUCKETS_MS)
    )


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_registry_memoizes_on_name_and_labels():
    registry = MetricsRegistry()
    a = registry.counter("x", participant="C")
    b = registry.counter("x", participant="C")
    c = registry.counter("x", participant="V")
    assert a is b
    assert a is not c
    assert len(registry) == 2


def test_registry_label_order_is_canonical():
    registry = MetricsRegistry()
    a = registry.counter("x", src="C", dst="V")
    b = registry.counter("x", dst="V", src="C")
    assert a is b


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("x", participant="C")
    with pytest.raises(ConfigurationError):
        registry.gauge("x", participant="V")
    with pytest.raises(ConfigurationError):
        registry.histogram("x")


def test_registry_introspection_sorted_and_typed():
    registry = MetricsRegistry()
    registry.gauge("g")
    registry.counter("b")
    registry.counter("a")
    registry.histogram("h")
    assert [m.name for m in registry.all_metrics()] == ["a", "b", "g", "h"]
    assert all(isinstance(m, Counter) for m in registry.counters())
    assert all(isinstance(m, Gauge) for m in registry.gauges())
    assert all(isinstance(m, Histogram) for m in registry.histograms())
    assert registry.counters()[0] is registry.counter("a")  # memoized


# ----------------------------------------------------------------------
# Windowed-histogram edge cases
# ----------------------------------------------------------------------
def test_boundary_observation_lands_in_higher_window():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms", window_ms=100.0)
    hist.observe(1.0, at=99.999)
    hist.observe(2.0, at=100.0)  # exactly on the boundary
    assert hist.windows[0].count == 1
    assert hist.windows[1].count == 1
    assert hist.windows[1].sum == pytest.approx(2.0)


def test_empty_window_quantile_is_none():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms", window_ms=100.0)
    hist.observe(5.0, at=0.0)
    assert 7 not in hist.windows  # window never seen
    assert hist.windows[0].quantile(0.99) is not None
    # A window starts as an empty histogram: no quantile, zero tallies.
    empty = Histogram("lat_ms", (), hist.bounds)
    assert empty.quantile(0.99) is None
    assert [count for _, count in empty.cumulative_buckets()] == [0] * (
        len(hist.bounds) + 1
    )
    assert empty.count == 0
    assert empty.sum == 0.0


def test_quantile_of_empty_histogram_is_none():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms")
    assert hist.quantile(0.5) is None


def test_quantile_interpolates_within_bucket():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.6, 3.0):
        hist.observe(value)
    # Prometheus semantics: rank q*total, linear within the bucket.
    q = hist.quantile(0.5)
    assert 1.0 <= q <= 2.0


def test_quantile_of_overflow_bucket_reports_last_finite_bound():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms", buckets=(1.0, 2.0))
    hist.observe(100.0)  # +Inf bucket only
    assert hist.quantile(0.99) == pytest.approx(2.0)


def test_quantile_rejects_out_of_range_q():
    registry = MetricsRegistry()
    hist = registry.histogram("lat_ms")
    hist.observe(1.0)
    with pytest.raises(ConfigurationError):
        hist.quantile(1.5)


def test_window_cumulative_buckets_are_monotonic():
    registry = MetricsRegistry()
    hist = registry.histogram(
        "lat_ms", window_ms=100.0, buckets=(1.0, 5.0, 10.0)
    )
    for value in (0.5, 2.0, 7.0, 50.0):
        hist.observe(value, at=10.0)
    pairs = hist.windows[0].cumulative_buckets()
    bounds = [bound for bound, _ in pairs]
    counts = [count for _, count in pairs]
    assert bounds == sorted(bounds)
    assert counts == sorted(counts)  # cumulative: never decreases
    assert counts[-1] == hist.windows[0].count == 4
