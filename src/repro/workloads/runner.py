"""The one timing loop behind every figure/table driver."""

from __future__ import annotations

import types
from typing import Any, Callable, List, Optional

from repro.sim.simulator import Simulator
from repro.workloads.generator import BatchWorkload

#: Only stops a runaway simulation: the largest loop of
#: ``python -m repro --full`` fires about 0.43 million events.
MAX_EVENTS = 400_000_000


def timed(
    sim: Simulator, op: Callable[[int], Any], count: int, warmup: int = 0
) -> List[float]:
    """Run ``op(0) … op(count - 1)`` back to back in one process.

    Each op returns what a process may yield (a future, a list of
    futures); an op of several steps is a generator, run inline with
    ``yield from`` so it adds no child process. The latency of every op
    at or past index ``warmup`` is recorded; runs until the last op
    completes.

    Returns:
        The recorded latencies in virtual ms, in op order.
    """
    latencies: List[float] = []

    def loop():
        for index in range(count):
            start = sim.now
            step = op(index)
            if isinstance(step, types.GeneratorType):
                yield from step
            else:
                yield step
            if index >= warmup:
                latencies.append(sim.now - start)

    sim.run_until_resolved(sim.spawn(loop()), max_events=MAX_EVENTS)
    return latencies


def mean(latencies: List[float]) -> float:
    """Arithmetic mean summed left to right, the reduction every driver
    reports (0.0 when empty)."""
    return sum(latencies) / len(latencies) if latencies else 0.0


def throughput_mb_per_s(total_bytes: float, elapsed_ms: float) -> float:
    """Throughput in MB/s (decimal megabytes, as in the paper's iperf
    numbers) given bytes moved over ``elapsed_ms`` virtual milliseconds."""
    if elapsed_ms <= 0:
        return 0.0
    return (total_bytes / 1e6) / (elapsed_ms / 1e3)


def sequential_commit_latency(
    sim: Simulator,
    commit: Callable[[str, int], Any],
    workload: Optional[BatchWorkload] = None,
) -> dict:
    """Run the paper's standard sequential workload to completion: commit
    batches back to back (group commit — the next batch starts when the
    previous one is durable) and average after the warm-up.

    Args:
        sim: The simulator (deployment already built on it).
        commit: ``commit(batch, payload_bytes) -> Future`` — e.g.
            ``api.log_commit``, ``replica.submit``, or a baseline's
            ``replicate``.
        workload: Batch counts/sizes; defaults to the paper's numbers.

    Returns:
        Dict with ``latency_ms`` (mean over measured batches),
        ``series`` (the measured latencies), and ``throughput_mb_s``
        (batch size / mean latency, the identity the paper's Figure 4
        exhibits under group commit).
    """
    workload = workload or BatchWorkload()
    batches = workload.batches()
    series = timed(
        sim,
        lambda _index: commit(next(batches), workload.batch_bytes),
        workload.total,
        workload.warmup,
    )
    mean_latency = mean(series)
    return {
        "latency_ms": mean_latency,
        "series": series,
        "throughput_mb_s": throughput_mb_per_s(
            workload.batch_bytes * len(series), mean_latency * len(series)
        ),
    }
