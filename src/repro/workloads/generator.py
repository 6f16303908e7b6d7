"""Workload generators.

The paper's workload is simple and explicit: "Each experiment is the
average of committing 1000 batches after a warm-up period of committing
100 batches. The size of a batch is 1000 bytes. The contents of each
batch is an arbitrary set of commands." These helpers produce exactly
that shape, deterministically from a seed.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterator


def make_batch(index: int, size_bytes: int, seed: int = 0) -> str:
    """One batch: an arbitrary, deterministic command blob.

    The returned string's length equals ``size_bytes`` so the network
    model charges the intended payload (we pass ``payload_bytes``
    separately; the content just has to be *something* committable).
    """
    rng = random.Random((seed << 32) ^ index)
    header = f"batch:{index}:"
    filler_length = max(size_bytes - len(header), 0)
    # A cheap deterministic filler — one random char repeated is enough
    # for a latency study and keeps generation O(1)-ish.
    filler = chr(ord("a") + rng.randrange(26)) * filler_length
    return (header + filler)[: max(size_bytes, len(header))]


@dataclasses.dataclass
class BatchWorkload:
    """The paper's standard workload: warm-up then measured batches.

    Attributes:
        measured: Batches whose latency is recorded (paper: 1000).
        warmup: Batches committed first and discarded (paper: 100).
        batch_bytes: Payload size per batch (paper default: 1000).
        seed: Determinism seed for batch contents.
    """

    measured: int = 1000
    warmup: int = 100
    batch_bytes: int = 1000
    seed: int = 0

    @property
    def total(self) -> int:
        """Warm-up plus measured batches."""
        return self.warmup + self.measured

    def batches(self) -> Iterator[str]:
        """Yield all batch payloads in commit order."""
        for index in range(self.total):
            yield make_batch(index, self.batch_bytes, self.seed)
