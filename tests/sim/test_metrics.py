"""Unit tests for metrics aggregation."""

import pytest

from repro.sim.metrics import LatencySeries, throughput_mb_per_s


def test_latency_series_stats():
    series = LatencySeries("test")
    for value in (1.0, 2.0, 3.0, 4.0):
        series.add(value)
    assert series.mean == 2.5
    assert len(series) == 4


def test_empty_series_is_zeroes():
    series = LatencySeries()
    assert series.mean == 0.0
    assert len(series) == 0


def test_throughput_identity():
    # 100 KB in 1.2 ms -> ~83 MB/s (the paper's Table II fixture).
    assert throughput_mb_per_s(100_000, 1.2) == pytest.approx(83.3, abs=0.1)


def test_throughput_zero_time():
    assert throughput_mb_per_s(1000, 0.0) == 0.0
