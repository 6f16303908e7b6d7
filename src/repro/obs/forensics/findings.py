"""Attributed misbehavior findings and audit reports.

A :class:`Finding` is one attributed piece of forensic evidence: *who*
is suspected (a node, a daemon route, a WAN link, or a whole site), *of
what* (a finding kind from :data:`FINDING_SCORES`), and *why* (a small
evidence bundle of flight-recorder journal events). Findings are data —
they serialize to JSON so an accusation can be archived, diffed against
a chaos plan's ground truth, and handed to an operator.

Suspicion semantics: only ``replica`` and ``daemon`` suspects are
*accusations* (they name a byzantine-capable component); ``link`` and
``site`` findings are health signals — tampering on a WAN link or a
view-change storm at a site is real information but does not attribute
blame to one node, so it never contributes to a suspicion score.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Dict, Iterable, List, Tuple

#: Finding kind → suspicion score contributed per finding. Scores are
#: calibrated so a single cryptographic proof (a forged MAC, a signed
#: equivocation) is conclusive on its own while circumstantial evidence
#: (a silent node) stays below certainty until corroborated.
FINDING_SCORES: Dict[str, float] = {
    # Replica accusations.
    "equivocation": 1.0,          # two signed proposals/votes, one slot
    "vote-mismatch": 0.9,         # voted a digest nobody proposed
    "spoofed-vote": 0.9,          # sent a vote claiming another replica
    "forged-signature": 1.0,      # MAC fails verification (conclusive)
    "impersonation": 1.0,         # signed as another unit member
    "promiscuous-signature": 1.0, # attested a canary its log cannot hold
    "silent-replica": 0.8,        # zero participation, never crashed
    # Daemon accusations (suspect is a "SRC->DST" route).
    "withheld-transmissions": 0.9,
    # Link health (non-accusing: blame could sit at either end or on
    # the wire).
    "tampered-transmission": 0.4,
    "chain-gap": 0.3,
    # Site health (non-accusing).
    "view-change-storm": 0.2,
    "mirror-divergence": 0.2,
}

#: ``suspect_kind`` values whose findings count toward suspicion.
ACCUSING_KINDS = ("replica", "daemon")

#: Default suspicion threshold for :meth:`AuditReport.accused`.
DEFAULT_THRESHOLD = 0.5


@dataclasses.dataclass(frozen=True)
class Finding:
    """One attributed finding with its evidence bundle.

    Attributes:
        kind: A :data:`FINDING_SCORES` key.
        suspect: The accused component — a node id (``"C-2"``), a
            daemon route (``"C->V"``), a link (``"C->V"``), or a site.
        suspect_kind: ``replica`` | ``daemon`` | ``link`` | ``site``.
        participant: Site whose unit the evidence concerns.
        score: Suspicion contributed (``FINDING_SCORES[kind]``).
        summary: One human-readable sentence.
        evidence: Up to a few journal events (dict form) backing the
            finding; ``count`` records how many raw observations were
            folded into it.
        count: Total observations behind this finding.
        context: Extra structured detail (positions, digests, views).
    """

    kind: str
    suspect: str
    suspect_kind: str
    participant: str
    score: float
    summary: str
    evidence: Tuple[Dict[str, Any], ...] = ()
    count: int = 1
    context: Dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def accusing(self) -> bool:
        """Whether this finding names a byzantine-capable component."""
        return self.suspect_kind in ACCUSING_KINDS

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "suspect": self.suspect,
            "suspect_kind": self.suspect_kind,
            "participant": self.participant,
            "score": self.score,
            "summary": self.summary,
            "count": self.count,
            "context": dict(self.context),
            "evidence": [dict(event) for event in self.evidence],
        }

    def describe(self) -> str:
        """One report line."""
        extra = f" ×{self.count}" if self.count > 1 else ""
        return (
            f"[{self.kind}] {self.suspect_kind} {self.suspect} "
            f"(score {self.score:.1f}{extra}): {self.summary}"
        )


@dataclasses.dataclass
class AuditReport:
    """The auditor's verdict over one journal.

    Attributes:
        findings: All findings, deterministically ordered (accusations
            first, then by descending score, then by suspect).
        health: Per-participant and global protocol health counters
            (commits, view changes, reserve promotions, proof verdicts)
            — the SLO summary an operator reads before the findings.
        events_seen: Journal events the auditor consumed.
    """

    findings: List[Finding] = dataclasses.field(default_factory=list)
    health: Dict[str, Any] = dataclasses.field(default_factory=dict)
    events_seen: int = 0

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def suspicion(self) -> Dict[str, float]:
        """Suspicion score per suspect (accusing findings only),
        capped at 1.0."""
        scores: Dict[str, float] = {}
        for finding in self.findings:
            if not finding.accusing:
                continue
            scores[finding.suspect] = min(
                1.0, scores.get(finding.suspect, 0.0) + finding.score
            )
        return dict(sorted(scores.items()))

    def accused(self, threshold: float = DEFAULT_THRESHOLD) -> List[str]:
        """Suspects whose suspicion reaches ``threshold``."""
        return [
            suspect
            for suspect, score in self.suspicion().items()
            if score >= threshold
        ]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "events_seen": self.events_seen,
            "suspicion": self.suspicion(),
            "accused": self.accused(),
            "findings": [finding.to_dict() for finding in self.findings],
            "health": self.health,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def to_text(self) -> str:
        """Operator-facing plain-text report."""
        lines: List[str] = []
        accused = self.accused()
        lines.append(
            f"audit: {self.events_seen} events, "
            f"{len(self.findings)} findings, {len(accused)} accused"
        )
        if accused:
            suspicion = self.suspicion()
            for suspect in accused:
                lines.append(
                    f"  ACCUSED {suspect} (suspicion {suspicion[suspect]:.1f})"
                )
        else:
            lines.append("  no accusations")
        for finding in self.findings:
            lines.append(f"  {finding.describe()}")
        per_site = self.health.get("participants", {})
        if per_site:
            lines.append("health:")
            for site in sorted(per_site):
                stats = per_site[site]
                lines.append(
                    f"  {site}: log={stats.get('log_length', 0)} "
                    f"view_changes={stats.get('view_changes', 0)} "
                    f"verify_rejects={stats.get('verify_rejects', 0)}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Evidence export
    # ------------------------------------------------------------------
    def export_evidence(self, directory: str) -> Dict[str, str]:
        """Write the report and one evidence bundle per finding.

        Returns artifact name → path (``report.json`` plus
        ``evidence/finding-NNN-<kind>.json`` files).
        """
        os.makedirs(directory, exist_ok=True)
        paths: Dict[str, str] = {}
        report_path = os.path.join(directory, "report.json")
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        paths["report"] = report_path
        evidence_dir = os.path.join(directory, "evidence")
        os.makedirs(evidence_dir, exist_ok=True)
        for index, finding in enumerate(self.findings):
            name = f"finding-{index:03d}-{finding.kind}"
            path = os.path.join(evidence_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(
                    json.dumps(finding.to_dict(), indent=2) + "\n"
                )
            paths[name] = path
        return paths


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Deterministic report order: accusations first, then descending
    score, then suspect/kind for a stable tie-break."""
    return sorted(
        findings,
        key=lambda f: (not f.accusing, -f.score, f.suspect, f.kind),
    )
