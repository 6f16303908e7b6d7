"""Finding/report semantics: suspicion scoring, ordering, evidence
export."""

import json

from repro.obs.forensics import (
    ACCUSING_KINDS,
    DEFAULT_THRESHOLD,
    FINDING_SCORES,
    AuditReport,
    Finding,
)
from repro.obs.forensics.findings import sort_findings


def _finding(kind, suspect, suspect_kind="replica", participant="C",
             count=1):
    return Finding(
        kind=kind,
        suspect=suspect,
        suspect_kind=suspect_kind,
        participant=participant,
        score=FINDING_SCORES[kind],
        summary=f"{suspect} did {kind}",
        evidence=({"kind": "pbft.vote", "event_id": 1},),
        count=count,
    )


def test_scores_cover_every_kind_and_threshold_splits_them():
    assert all(0.0 < score <= 1.0 for score in FINDING_SCORES.values())
    # Every replica/daemon kind alone crosses the default threshold;
    # link/site kinds never do.
    for kind in ("equivocation", "forged-signature", "silent-replica",
                 "withheld-transmissions"):
        assert FINDING_SCORES[kind] >= DEFAULT_THRESHOLD
    for kind in ("tampered-transmission", "chain-gap",
                 "view-change-storm", "mirror-divergence"):
        assert FINDING_SCORES[kind] < DEFAULT_THRESHOLD


def test_suspicion_sums_and_caps_at_one():
    report = AuditReport(findings=[
        _finding("silent-replica", "C-2"),          # 0.8
        _finding("vote-mismatch", "C-2"),           # +0.9 -> capped 1.0
        _finding("chain-gap", "C-2", "link"),       # non-accusing: ignored
        _finding("tampered-transmission", "A->B", "link"),
    ])
    assert report.suspicion() == {"C-2": 1.0}
    assert report.accused() == ["C-2"]
    assert any(f.accusing for f in report.findings)
    assert len([f for f in report.findings if f.accusing]) == 2


def test_link_and_site_findings_alone_keep_the_report_clean():
    report = AuditReport(findings=[
        _finding("view-change-storm", "C", "site"),
        _finding("mirror-divergence", "V", "site"),
        _finding("chain-gap", "C->V", "link"),
    ])
    assert not any(f.accusing for f in report.findings)
    assert report.suspicion() == {}
    assert "no accusations" in report.to_text()


def test_threshold_is_tunable():
    report = AuditReport(findings=[_finding("silent-replica", "C-3")])
    assert report.accused(threshold=0.5) == ["C-3"]
    assert report.accused(threshold=0.9) == []


def test_sort_order_accusations_first_then_score():
    findings = sort_findings([
        _finding("chain-gap", "A->B", "link"),
        _finding("silent-replica", "C-2"),
        _finding("equivocation", "C-0"),
        _finding("withheld-transmissions", "C->V", "daemon"),
    ])
    assert [f.kind for f in findings] == [
        "equivocation",            # accusing, 1.0
        "withheld-transmissions",  # accusing, 0.9
        "silent-replica",          # accusing, 0.8
        "chain-gap",               # health
    ]


def test_report_round_trips_through_json():
    report = AuditReport(
        findings=[_finding("equivocation", "C-0", count=3)],
        health={"participants": {"C": {"log_length": 5}}},
        events_seen=42,
    )
    decoded = json.loads(report.to_json())
    assert decoded == report.to_dict()
    assert decoded["accused"] == ["C-0"]
    assert decoded["findings"][0]["count"] == 3
    assert decoded["findings"][0]["evidence"][0]["kind"] == "pbft.vote"
    text = report.to_text()
    assert "ACCUSED C-0" in text
    assert "×3" in text


def test_export_evidence_writes_report_and_bundles(tmp_path):
    report = AuditReport(findings=[
        _finding("equivocation", "C-0"),
        _finding("silent-replica", "C-2"),
    ])
    paths = report.export_evidence(str(tmp_path / "bundle"))
    assert sorted(paths) == [
        "finding-000-equivocation",
        "finding-001-silent-replica",
        "report",
    ]
    saved = json.loads(open(paths["report"], encoding="utf-8").read())
    assert saved == report.to_dict()
    bundle = json.loads(
        open(paths["finding-000-equivocation"], encoding="utf-8").read()
    )
    assert bundle["suspect"] == "C-0"
    assert bundle["evidence"]


def test_accusing_kinds_are_replica_and_daemon():
    assert ACCUSING_KINDS == ("replica", "daemon")
    assert _finding("equivocation", "C-0").accusing
    assert not _finding("chain-gap", "C->V", "link").accusing
