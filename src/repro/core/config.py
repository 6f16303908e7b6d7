"""Blockplane deployment configuration."""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigurationError
from repro.pbft import quorums
from repro.pbft.config import PBFTConfig


@dataclasses.dataclass
class BlockplaneConfig:
    """Fault-tolerance levels and operational knobs.

    Attributes:
        f_independent: ``fi`` — tolerated independent byzantine failures
            per participant. Each unit runs ``3·fi + 1`` nodes.
        f_geo: ``fg`` — tolerated benign geo-correlated (whole
            datacenter) failures. When positive, each commit additionally
            gathers proofs from ``fg`` of the participant's ``2·fg``
            replication peers.
        pbft: Parameters of the unit-local PBFT groups.
        transmission_fanout: How many destination nodes a transmission
            record is sent to. Values above 1 mask byzantine receivers;
            the destination deduplicates.
        reserve_poll_interval_ms: How often reserve daemons probe remote
            participants for gaps (Section IV-C).
        reserve_gap_threshold: Source-log-position gap above which a
            reserve promotes itself to an active communication daemon.
        admission_max_in_flight: Maximum concurrently outstanding
            ``log_commit``/``send`` calls per participant API before new
            submissions are shed with
            :class:`~repro.errors.Overloaded` (0 = unlimited). This is
            the open-loop backpressure valve: arrivals beyond what the
            unit can drain fail fast instead of queueing unboundedly.
        geo_suspicion_ttl_ms: How long a timed-out mirror participant is
            demoted to last-resort before being retried eagerly.
    """

    f_independent: int = 1
    f_geo: int = 0
    # Blockplane units run signed checkpoints (the node layer overrides
    # the certificate hooks), so the executed-entry log is GC'd below
    # each stable checkpoint by default — recovery past the retained
    # suffix goes through certified snapshot state transfer.
    pbft: PBFTConfig = dataclasses.field(
        default_factory=lambda: PBFTConfig(gc_executed_log=True)
    )
    transmission_fanout: int = 2
    reserve_poll_interval_ms: float = 500.0
    reserve_gap_threshold: int = 8
    admission_max_in_flight: int = 0
    geo_suspicion_ttl_ms: float = 5_000.0

    def __post_init__(self) -> None:
        if self.f_independent < 1:
            raise ConfigurationError("f_independent must be at least 1")
        if self.f_geo < 0:
            raise ConfigurationError("f_geo cannot be negative")
        if self.transmission_fanout < 1:
            raise ConfigurationError("transmission_fanout must be at least 1")
        if self.admission_max_in_flight < 0:
            raise ConfigurationError(
                "admission_max_in_flight cannot be negative"
            )

    @property
    def unit_size(self) -> int:
        """Nodes per participant: ``3·fi + 1``."""
        return quorums.unit_size(self.f_independent)

    @property
    def proof_size(self) -> int:
        """Signatures in a transmission proof: ``fi + 1``."""
        return quorums.proof_quorum(self.f_independent)
