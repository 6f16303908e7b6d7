"""Open-loop arrival generation (sustained-load experiments).

The paper's standard workload is closed-loop: the next batch starts when
the previous one is durable, so the system is never offered more than it
can drain. Robustness questions — does memory stay bounded, does
admission control shed gracefully, do checkpoints keep up — need the
opposite: arrivals that keep coming at a configured rate regardless of
completion. :class:`OpenLoopWorkload` produces a deterministic, seeded
arrival schedule (Poisson inter-arrival gaps, optionally punctuated by
back-to-back bursts), and :func:`open_loop_process` drives a commit
function with it, retrying submissions shed by admission control on a fixed
backoff instead of silently dropping offered load.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, Iterator

from repro.errors import Overloaded
from repro.sim.process import Future
from repro.sim.simulator import Simulator


@dataclasses.dataclass
class OpenLoopWorkload:
    """A seeded open-loop arrival schedule.

    Attributes:
        rate_per_s: Mean offered arrival rate (Poisson process).
        total: Total arrivals to generate (bursts count toward it).
        batch_bytes: Payload size per operation.
        seed: Determinism seed for gaps, keys, and payloads.
        burst_every: When positive, every ``burst_every``-th arrival is
            followed by ``burst_size`` zero-gap arrivals — a client-side
            queue flushing all at once. 0 = pure Poisson.
        burst_size: Arrivals injected back-to-back per burst.
        clients: Simulated client population; operations are attributed
            round-robin (shows up in the payload header only).
        hot_fraction: Fraction of operations directed at a single hot
            key (0 = uniform key choice) — a cheap skew knob so payload
            contents are not uniformly distributed.
    """

    rate_per_s: float = 1_000.0
    total: int = 10_000
    batch_bytes: int = 100
    seed: int = 0
    burst_every: int = 0
    burst_size: int = 0
    clients: int = 1
    hot_fraction: float = 0.0

    def gaps_ms(self) -> Iterator[float]:
        """Inter-arrival gaps in milliseconds, ``total`` of them."""
        rng = random.Random((self.seed << 32) ^ self.total)
        mean_gap = 1000.0 / self.rate_per_s
        emitted = 0
        while emitted < self.total:
            yield rng.expovariate(1.0 / mean_gap)
            emitted += 1
            if self.burst_every > 0 and emitted % self.burst_every == 0:
                for _ in range(min(self.burst_size, self.total - emitted)):
                    yield 0.0
                    emitted += 1

    def payload(self, index: int) -> str:
        """Deterministic payload for the ``index``-th arrival."""
        rng = random.Random((self.seed << 32) ^ (index * 2 + 1))
        client = index % max(self.clients, 1)
        if self.hot_fraction > 0 and rng.random() < self.hot_fraction:
            key = 0
        else:
            key = rng.randrange(1 << 16)
        header = f"op:{index}:c{client}:k{key}:"
        filler_length = max(self.batch_bytes - len(header), 0)
        return header + "x" * filler_length


def open_loop_process(
    sim: Simulator,
    commit: Callable[[str, int], Any],
    workload: OpenLoopWorkload,
    stats: Dict[str, Any],
    retry_after_ms: float,
    retry_budget: int,
    settle_poll_ms: float,
):
    """Generator process: offer arrivals on schedule, never waiting for
    completions; shed submissions are retried by side processes. Ends
    when every offered operation has settled (committed, failed, or
    dropped after exhausting its retry budget)."""
    started = sim.now

    def _settled(future) -> None:
        if future.exception is not None:
            stats["failed"] += 1
        else:
            stats["committed"] += 1

    def _submit(value: str) -> bool:
        """One admission attempt; True when the commit was accepted."""
        try:
            future: Future = commit(value, workload.batch_bytes)
        except Overloaded:
            stats["shed"] += 1
            return False
        stats["admitted"] += 1
        future.add_done_callback(_settled)
        return True

    def _retry(value: str, budget: int):
        while budget > 0:
            yield sim.sleep(retry_after_ms)
            if _submit(value):
                return
            budget -= 1
        stats["dropped"] += 1

    for index, gap in enumerate(workload.gaps_ms()):
        if gap > 0:
            yield sim.sleep(gap)
        stats["offered"] += 1
        value = workload.payload(index)
        if not _submit(value):
            if retry_budget > 0:
                sim.spawn(_retry(value, retry_budget))
            else:
                stats["dropped"] += 1
    while (
        stats["committed"] + stats["failed"] + stats["dropped"]
        < stats["offered"]
    ):
        yield sim.sleep(settle_poll_ms)
    stats["duration_ms"] = sim.now - started
