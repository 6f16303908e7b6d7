"""Metric primitives and the deployment-wide registry.

Three metric kinds, modelled after the Prometheus data model but driven
by *virtual* time:

* :class:`Counter` — monotonically increasing totals (messages sent,
  commits executed, view changes).
* :class:`Gauge` — a value that goes up and down (Local Log length).
* :class:`Histogram` — bucketed latency distributions, optionally
  *windowed* over virtual time so experiments can ask "what did the
  commit latency look like during [t0, t1)" (Figure 8's recovery plots
  need exactly that).

Metrics are identified by a name plus a small label set, e.g.
``pbft_prepared_to_committed_ms{participant="C"}``. The registry
memoizes handles, so instrumentation sites can fetch a metric once and
keep incrementing the same object.

Everything here is passive: observing a metric never schedules events,
never consumes randomness, and therefore can never perturb a simulated
run (the obs test suite asserts this equivalence).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Canonical label encoding: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default latency buckets (milliseconds). Chosen to resolve both the
#: sub-millisecond intra-DC commits of Figure 4 and the 60–140 ms WAN
#: round trips of Figures 5/6.
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    75.0, 100.0, 150.0, 250.0, 500.0, 1000.0,
)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc({amount}))"
            )
        self.value += amount


class Gauge:
    """A value that can move in both directions."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0


class Histogram:
    """Cumulative-bucket histogram with optional virtual-time windows.

    Args:
        name: Metric name.
        labels: Canonical label pairs.
        buckets: Ascending upper bounds; an implicit +Inf bucket is
            always appended.
        window_ms: When set, every observation is also tallied into the
            virtual-time window ``floor(at / window_ms)`` — each window
            is a plain :class:`Histogram` in :attr:`windows`, so windowed
            rates, means, and quantiles can be derived after a run. An
            observation landing exactly on a boundary belongs to the
            *higher* window (``floor`` of the half-open ``[k·w, (k+1)·w)``
            convention).
    """

    __slots__ = (
        "name", "labels", "bounds", "bucket_counts",
        "count", "sum", "min", "max", "window_ms", "windows",
    )

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        window_ms: Optional[float] = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name}: bucket bounds must be strictly "
                f"ascending, got {bounds}"
            )
        if window_ms is not None and window_ms <= 0:
            raise ConfigurationError(
                f"histogram {name}: window_ms must be positive"
            )
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.window_ms = window_ms
        #: window index -> that window's observations
        self.windows: Dict[int, Histogram] = {}

    def observe(self, value: float, at: float = 0.0) -> None:
        """Record one sample; ``at`` is the virtual time of observation
        (only consulted when the histogram is windowed)."""
        bucket = bisect.bisect_left(self.bounds, value)
        self.bucket_counts[bucket] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.window_ms is not None:
            window = int(at // self.window_ms)
            child = self.windows.get(window)
            if child is None:
                child = self.windows[window] = Histogram(
                    self.name, self.labels, self.bounds
                )
            child.observe(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs, ending
        with the +Inf bucket."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile from the bucket counts
        (Prometheus ``histogram_quantile`` semantics: linear
        interpolation inside the bucket, the highest finite bound for
        samples in the +Inf bucket). ``None`` when empty."""
        total = sum(self.bucket_counts)
        if total <= 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        rank = q * total
        cumulative = 0
        for i, bucket in enumerate(self.bucket_counts):
            if bucket == 0:
                cumulative += bucket
                continue
            if cumulative + bucket >= rank:
                if i >= len(self.bounds):
                    # +Inf bucket: best estimate is the last finite bound.
                    return float(self.bounds[-1]) if self.bounds else 0.0
                lower = float(self.bounds[i - 1]) if i > 0 else 0.0
                upper = float(self.bounds[i])
                fraction = (rank - cumulative) / bucket
                return lower + (upper - lower) * max(0.0, min(1.0, fraction))
            cumulative += bucket
        return float(self.bounds[-1]) if self.bounds else 0.0


class MetricsRegistry:
    """Holds every metric of one observability session.

    Handles are memoized on ``(name, labels)``; asking twice returns the
    same object. A name must keep one kind for the whole session —
    re-registering ``x`` as both a counter and a gauge is an error.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}
        self._kinds: Dict[str, type] = {}

    def _get(self, cls: type, name: str, labels: Dict[str, Any], **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            return metric
        registered = self._kinds.get(name)
        if registered is not None and registered is not cls:
            raise ConfigurationError(
                f"metric {name!r} already registered as "
                f"{registered.__name__}, not {cls.__name__}"
            )
        self._kinds[name] = cls
        metric = cls(name, key[1], **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        """Fetch-or-create a counter."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Fetch-or-create a gauge."""
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        window_ms: Optional[float] = None,
        **labels: Any,
    ) -> Histogram:
        """Fetch-or-create a histogram (bucket/window parameters only
        apply on first creation)."""
        return self._get(
            Histogram, name, labels, buckets=buckets, window_ms=window_ms
        )

    # ------------------------------------------------------------------
    # Introspection (exporters iterate these)
    # ------------------------------------------------------------------
    def all_metrics(self) -> List[Any]:
        """Every registered metric, sorted by (name, labels)."""
        return [
            self._metrics[key] for key in sorted(self._metrics.keys())
        ]

    def counters(self) -> List[Counter]:
        return [m for m in self.all_metrics() if isinstance(m, Counter)]

    def gauges(self) -> List[Gauge]:
        return [m for m in self.all_metrics() if isinstance(m, Gauge)]

    def histograms(self) -> List[Histogram]:
        return [m for m in self.all_metrics() if isinstance(m, Histogram)]

    def __len__(self) -> int:
        return len(self._metrics)
