"""Latency/throughput aggregation used by experiments and benchmarks.

The paper reports average latencies over 1000 committed batches after a
100-batch warm-up, and throughput as bytes committed per unit time. The
helpers here implement exactly those two aggregations.
"""

from __future__ import annotations

from typing import List


class LatencySeries:
    """An append-only series of latency samples in milliseconds."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.samples: List[float] = []

    def add(self, value: float) -> None:
        """Record one sample."""
        self.samples.append(value)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)


def throughput_mb_per_s(total_bytes: float, elapsed_ms: float) -> float:
    """Throughput in MB/s (decimal megabytes, as in the paper's iperf
    numbers) given bytes moved over ``elapsed_ms`` virtual milliseconds."""
    if elapsed_ms <= 0:
        return 0.0
    return (total_bytes / 1e6) / (elapsed_ms / 1e3)
