"""PBFT tuning parameters."""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class PBFTConfig:
    """Timing and log-management knobs for a PBFT group.

    Attributes:
        request_timeout_ms: How long the submitter of a request waits
            for commitment before suspecting the leader and voting for a
            view change. Intra-datacenter commits take about a
            millisecond, so the default leaves ample slack.
        view_change_timeout_ms: How long a replica waits for a NewView
            after voting before escalating to the next view.
        checkpoint_interval: Execute this many entries between
            checkpoint broadcasts; the message log below a stable
            checkpoint is garbage-collected.
        gc_executed_log: Garbage-collect the executed-entry log below
            each stable checkpoint. Requires signed checkpoints (a
            subclass overriding the certificate hooks, e.g. Blockplane
            nodes): replicas that fell below every peer's retained
            suffix can then only rejoin by certified snapshot state
            transfer. Off by default so plain PBFT groups keep the full
            replay log.
    """

    request_timeout_ms: float = 50.0
    view_change_timeout_ms: float = 100.0
    checkpoint_interval: int = 64
    gc_executed_log: bool = False
