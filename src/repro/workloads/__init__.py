"""Workload generation and experiment-running helpers."""

from repro.workloads.generator import BatchWorkload, make_batch
from repro.workloads.openloop import OpenLoopWorkload, open_loop_process
from repro.workloads.runner import sequential_commit_latency, timed

__all__ = [
    "BatchWorkload",
    "OpenLoopWorkload",
    "make_batch",
    "open_loop_process",
    "sequential_commit_latency",
    "timed",
]
