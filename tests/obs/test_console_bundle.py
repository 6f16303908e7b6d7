"""Console bundle assembly and the ``repro.console/v2`` validator.

The bundle is the stable interface between the one producer
(``build_bundle`` over a hub, written by every export) and the HTML
renderer, so the validator is exercised against both the golden
lifecycle run and hand-corrupted documents covering each rule.
"""

import copy

import pytest

from repro.obs import Observability
from repro.obs.console import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SchemaError,
    build_bundle,
    check,
    finding_id,
    validate,
)
from repro.obs.demo import trace_commit_lifecycle
from repro.obs.exporters import journal_snapshot
from repro.obs.forensics.findings import AuditReport, Finding


@pytest.fixture(scope="module")
def golden_obs() -> Observability:
    """The canonical traced cross-DC commit (140-event golden journal)."""
    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)
    return obs


@pytest.fixture(scope="module")
def golden_bundle(golden_obs):
    return build_bundle(golden_obs, title="golden")


# ----------------------------------------------------------------------
# Assembly from a live hub
# ----------------------------------------------------------------------
def test_bundle_from_hub_is_schema_valid(golden_bundle):
    assert validate(golden_bundle) == []
    assert golden_bundle["schema"] == SCHEMA_NAME
    assert golden_bundle["schema_version"] == SCHEMA_VERSION


def test_bundle_carries_the_golden_journal(golden_bundle):
    journal = golden_bundle["journal"]
    assert journal["recorded"] == journal["retained"] == 140
    assert journal["dropped"] == 0
    assert journal["first_event_id"] == 1
    assert journal["last_event_id"] == 140
    ids = [event["event_id"] for event in journal["events"]]
    assert ids == list(range(1, 141))


def test_bundle_recovers_nodes_from_deploy_events(golden_bundle):
    nodes = golden_bundle["topology"]["nodes"]
    assert {node["id"] for node in nodes} == {
        f"{site}-{index}" for site in ("C", "V") for index in range(4)
    }
    roles = {node["id"]: node["role"] for node in nodes}
    # Each unit's leader is its site gateway in the demo deployment.
    assert "gateway" in roles.values()
    assert all(node["site"] in ("C", "V") for node in nodes)
    # The declared AWS topology keeps all four sites even though only
    # C and V appear in the journal.
    assert golden_bundle["topology"]["sites"] == ["C", "O", "V", "I"]


def test_bundle_embeds_spans_and_metrics(golden_bundle, golden_obs):
    assert len(golden_bundle["spans"]) == len(golden_obs.spans)
    names = {span["name"] for span in golden_bundle["spans"]}
    assert names >= {"commit", "wan.transmit", "daemon.ship"}
    assert "counters" in golden_bundle["metrics"]


def test_bundle_from_journal_snapshot_matches_hub(golden_obs):
    # The bundle's journal is exactly the journal.json export.
    assert build_bundle(golden_obs)["journal"] == journal_snapshot(golden_obs)


def test_bundle_records_eviction_window():
    obs = Observability(enabled=True, max_events=10)
    for index in range(25):
        obs.event("pbft.vote", participant="C", node="C-0", voter="C-1")
    bundle = build_bundle(obs)
    section = bundle["journal"]
    assert section["recorded"] == 25
    assert section["retained"] == 10
    assert section["dropped"] == 15
    assert section["first_event_id"] == 16
    assert section["last_event_id"] == 25
    assert validate(bundle) == []


def test_empty_bundle_defaults_to_aws_topology():
    bundle = build_bundle(Observability(enabled=True))
    assert bundle["topology"]["sites"] == ["C", "O", "V", "I"]
    assert bundle["topology"]["nodes"] == []
    assert bundle["journal"]["events"] == []
    assert validate(bundle) == []


# ----------------------------------------------------------------------
# Audit folding
# ----------------------------------------------------------------------
def _fake_audit(*evidence_ids):
    return AuditReport(
        findings=[
            Finding(
                kind="equivocation",
                suspect="C-2",
                suspect_kind="replica",
                participant="C",
                score=1.0,
                summary="two pre-prepares for one slot",
                evidence=tuple(
                    {"event_id": event_id}
                    for event_id in evidence_ids or (5, 9)
                ),
                count=2,
            ),
        ],
        events_seen=140,
    )


def test_audit_findings_get_stable_ids_and_evidence_links(golden_obs):
    bundle = build_bundle(golden_obs, audit=_fake_audit())
    assert validate(bundle) == []
    (finding,) = bundle["audit"]["findings"]
    # Matches the forensics exporter's evidence file naming.
    assert finding["id"] == finding_id(0, "equivocation")
    assert finding["id"] == "finding-000-equivocation"
    assert finding["evidence_event_ids"] == [5, 9]


def test_audit_from_live_report_round_trips(golden_obs):
    report = AuditReport(
        findings=[
            Finding(
                kind="silent-replica",
                suspect="V-3",
                suspect_kind="replica",
                participant="V",
                score=0.8,
                summary="no votes after slot 2",
                evidence=({"event_id": 100},),
            ),
        ],
        events_seen=140,
    )
    bundle = build_bundle(golden_obs, audit=report)
    assert validate(bundle) == []
    (finding,) = bundle["audit"]["findings"]
    assert finding["id"] == "finding-000-silent-replica"
    assert finding["evidence_event_ids"] == [100]


# ----------------------------------------------------------------------
# Validator rules, one corruption at a time
# ----------------------------------------------------------------------
def _corrupt(bundle, mutate):
    document = copy.deepcopy(bundle)
    mutate(document)
    return validate(document)


def test_validator_accepts_the_golden_document(golden_bundle):
    check(golden_bundle)  # does not raise


def test_validator_rejects_non_object():
    assert validate([1, 2]) == [
        "document must be an object, got list"
    ]


def test_validator_reports_missing_top_fields(golden_bundle):
    errors = _corrupt(golden_bundle, lambda d: d.pop("journal"))
    assert "missing top-level field 'journal'" in errors


def test_validator_rejects_wrong_schema_name(golden_bundle):
    errors = _corrupt(
        golden_bundle, lambda d: d.update(schema="repro.bench/v1")
    )
    assert any("schema must be" in error for error in errors)


def test_validator_rejects_wrong_schema_version(golden_bundle):
    errors = _corrupt(
        golden_bundle, lambda d: d.update(schema_version=99)
    )
    assert any("schema_version must be" in error for error in errors)


def test_validator_rejects_retained_mismatch(golden_bundle):
    errors = _corrupt(
        golden_bundle, lambda d: d["journal"].update(retained=3)
    )
    assert any("retained is 3 but" in error for error in errors)


def test_validator_rejects_non_monotonic_event_ids(golden_bundle):
    def mutate(document):
        events = document["journal"]["events"]
        events[5]["event_id"] = events[4]["event_id"]

    errors = _corrupt(golden_bundle, mutate)
    assert any("not strictly increasing" in error for error in errors)


def test_validator_rejects_duplicate_sites(golden_bundle):
    errors = _corrupt(
        golden_bundle,
        lambda d: d["topology"].update(sites=["C", "C", "V", "O", "I"]),
    )
    assert "topology.sites contains duplicates" in errors


def test_validator_rejects_duplicate_node_ids(golden_bundle):
    def mutate(document):
        nodes = document["topology"]["nodes"]
        nodes.append(dict(nodes[0]))

    errors = _corrupt(golden_bundle, mutate)
    assert any("duplicate topology node id" in error for error in errors)


def test_validator_rejects_node_on_unknown_site(golden_bundle):
    def mutate(document):
        document["topology"]["nodes"][0]["site"] = "Z"

    errors = _corrupt(golden_bundle, mutate)
    assert any("unknown site 'Z'" in error for error in errors)


def test_validator_rejects_edge_to_unknown_site(golden_bundle):
    def mutate(document):
        document["topology"]["rtt_ms"].append(["C", "Z", 42.0])

    errors = _corrupt(golden_bundle, mutate)
    assert any(
        "references an unknown site" in error for error in errors
    )


def test_validator_rejects_unresolvable_evidence(golden_obs):
    bundle = build_bundle(golden_obs, audit=_fake_audit())

    def mutate(document):
        finding = document["audit"]["findings"][0]
        finding["evidence_event_ids"] = [9999]

    errors = _corrupt(bundle, mutate)
    assert any(
        "cites event 9999 which is not retained" in error
        for error in errors
    )


def test_validator_rejects_duplicate_finding_ids(golden_obs):
    bundle = build_bundle(golden_obs, audit=_fake_audit())

    def mutate(document):
        findings = document["audit"]["findings"]
        findings.append(copy.deepcopy(findings[0]))

    errors = _corrupt(bundle, mutate)
    assert any("duplicate finding id" in error for error in errors)


def test_check_raises_with_every_violation(golden_bundle):
    broken = copy.deepcopy(golden_bundle)
    del broken["title"]
    broken["journal"]["retained"] = 1
    with pytest.raises(SchemaError) as excinfo:
        check(broken)
    message = str(excinfo.value)
    assert "missing top-level field 'title'" in message
    assert "retained is 1" in message


def test_build_bundle_validates_by_default(golden_obs):
    bad_audit = _fake_audit(9999)
    with pytest.raises(SchemaError):
        build_bundle(golden_obs, audit=bad_audit)
    document = build_bundle(golden_obs, audit=bad_audit, validate=False)
    assert document["audit"]["findings"][0]["evidence_event_ids"] == [9999]


# ----------------------------------------------------------------------
# v2 sections: latency attribution and chaos ground truth
# ----------------------------------------------------------------------
def _plan():
    from repro.chaos.plan import FaultAction, FaultPlan

    return FaultPlan(
        seed=7,
        profile="mixed",
        actions=(
            FaultAction(kind="crash", site="C", node_index=0,
                        start=1_000.0, end=5_000.0),
            FaultAction(kind="byzantine", site="V", node_index=1,
                        behavior="silent", start=0.0, end=None),
        ),
    )


def test_bundle_with_latency_section(golden_obs, golden_bundle):
    from repro.obs.critpath import attribute_log

    # A traced hub's bundle carries its critical-path attribution.
    assert golden_bundle["latency"] == attribute_log(golden_obs.spans)
    assert golden_bundle["latency"]["ops"] > 0
    assert golden_bundle["latency"]["conservation"]["ok"] is True
    # Without tracing there is nothing to decompose.
    untraced = Observability(enabled=True, tracing=False)
    trace_commit_lifecycle(untraced)
    assert "latency" not in build_bundle(untraced)


def test_bundle_with_chaos_plan(golden_obs):
    bundle = build_bundle(golden_obs, chaos=_plan())
    assert validate(bundle) == []
    chaos = bundle["chaos"]
    assert chaos["seed"] == 7
    assert [a["kind"] for a in chaos["actions"]] == ["byzantine", "crash"]
    crash = chaos["actions"][1]
    assert crash["site"] == "C"
    assert crash["start"] == 1_000.0 and crash["end"] == 5_000.0
    assert "crash C[0]" in crash["label"]
    # The open-ended byzantine plant is closed at the plan's extent so
    # the renderer always has a finite window.
    plant = chaos["actions"][0]
    assert plant["end"] == pytest.approx(
        chaos["horizon_ms"] + chaos["settle_ms"]
    )


def test_validator_rejects_v1_bundle(golden_bundle):
    old = copy.deepcopy(golden_bundle)
    old["schema"] = "repro.console/v1"
    assert any("schema must be" in e for e in validate(old))
    old["schema_version"] = 1
    assert any("schema_version must be" in e for e in validate(old))


def test_validator_rejects_bad_latency_section(golden_bundle):
    bad = copy.deepcopy(golden_bundle)
    bad["latency"] = {"end_to_end_ms": "fast", "segments": [{"p99": 1}]}
    errors = validate(bad)
    assert any("end_to_end_ms" in e for e in errors)
    assert any("segments[0]" in e for e in errors)


def test_validator_rejects_bad_chaos_actions(golden_bundle):
    bad = copy.deepcopy(golden_bundle)
    bad["chaos"] = {
        "actions": [
            {"kind": "crash", "start": 5.0, "end": 1.0, "label": "x"},
            {"kind": "crash", "start": 0.0, "end": 1.0, "label": "y",
             "site": "NOWHERE"},
            {"kind": "crash"},
        ]
    }
    errors = validate(bad)
    assert any("precedes" in e for e in errors)
    assert any("unknown site" in e for e in errors)
    assert any("missing field" in e for e in errors)
