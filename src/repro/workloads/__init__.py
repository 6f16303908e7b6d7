"""Workload generation and experiment-running helpers."""

from repro.workloads.openloop import OpenLoopWorkload, open_loop_process

__all__ = [
    "OpenLoopWorkload",
    "open_loop_process",
]
