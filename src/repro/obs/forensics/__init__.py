"""Byzantine forensics: flight-recorder auditing with attribution.

The flight recorder (:class:`~repro.obs.journal.EventJournal`, fed by
instrumentation across the PBFT, Local Log, daemon, recovery, and geo
layers) captures *what happened*; this package answers *who did it*:

* :mod:`~repro.obs.forensics.auditor` — the online auditor consuming
  journal events into attributed findings with suspicion scores;
* :mod:`~repro.obs.forensics.findings` — finding/report data model and
  evidence-bundle export;
* :mod:`~repro.obs.forensics.probes` — canary signature probes (the one
  active ingredient, catching promiscuous signers);
* :mod:`~repro.obs.forensics.quality` — precision/recall scoring of the
  auditor against chaos plans' ground truth.

Every chaos run is audited: ``python -m repro.chaos --seed 2
--profile byzantine --strict`` prints both verdicts per run.
"""

from repro.obs.forensics.auditor import (
    MIN_UNIT_ACTIVITY,
    OnlineAuditor,
    STORM_THRESHOLD,
)
from repro.obs.forensics.findings import (
    ACCUSING_KINDS,
    AuditReport,
    DEFAULT_THRESHOLD,
    FINDING_SCORES,
    Finding,
)
from repro.obs.forensics.probes import CanaryProber, canary_digest
from repro.obs.forensics.quality import DetectionScore, expected_accusations

__all__ = [
    "ACCUSING_KINDS",
    "AuditReport",
    "CanaryProber",
    "DEFAULT_THRESHOLD",
    "DetectionScore",
    "FINDING_SCORES",
    "Finding",
    "MIN_UNIT_ACTIVITY",
    "OnlineAuditor",
    "STORM_THRESHOLD",
    "canary_digest",
    "expected_accusations",
]
