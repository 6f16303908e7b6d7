"""Console bundle assembly and the ``repro.console/v2`` validator.

The bundle is the stable interface between every producer (chaos
runner, obs-audit CLI, hand-rolled scripts) and the HTML renderer, so
the validator is exercised against both the golden lifecycle run and
hand-corrupted documents covering each rule.
"""

import copy

import pytest

from repro.obs import Observability, to_chrome_trace
from repro.obs.console import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SchemaError,
    build_bundle,
    check,
    finding_id,
    spans_from_chrome_trace,
    validate,
)
from repro.obs.demo import trace_commit_lifecycle
from repro.obs.exporters import journal_snapshot
from repro.obs.journal import EventJournal


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
    from_hub = build_bundle(golden_obs)
    from_snapshot = build_bundle(journal=journal_snapshot(golden_obs))
    assert from_snapshot["journal"] == from_hub["journal"]
    assert from_snapshot["topology"] == from_hub["topology"]


def test_bundle_recomputes_header_ids_for_old_exports(golden_obs):
    snapshot = journal_snapshot(golden_obs)
    del snapshot["first_event_id"], snapshot["last_event_id"]
    bundle = build_bundle(journal=snapshot)
    assert bundle["journal"]["first_event_id"] == 1
    assert bundle["journal"]["last_event_id"] == 140


def test_bundle_records_eviction_window():
    journal = EventJournal(max_events=10)
    for index in range(25):
        journal.emit("pbft.vote", participant="C", node="C-0", voter="C-1")
    bundle = build_bundle(journal=journal)
    section = bundle["journal"]
    assert section["recorded"] == 25
    assert section["retained"] == 10
    assert section["dropped"] == 15
    assert section["first_event_id"] == 16
    assert section["last_event_id"] == 25
    assert validate(bundle) == []


def test_empty_bundle_defaults_to_aws_topology():
    bundle = build_bundle()
    assert bundle["topology"]["sites"] == ["C", "O", "V", "I"]
    assert bundle["topology"]["nodes"] == []
    assert bundle["journal"]["events"] == []
    assert validate(bundle) == []


# ----------------------------------------------------------------------
# Chrome-trace span recovery
# ----------------------------------------------------------------------
def test_spans_recovered_from_chrome_trace(golden_obs):
    document = to_chrome_trace(golden_obs)
    recovered = spans_from_chrome_trace(document)
    direct = [span.to_dict() for span in golden_obs.spans]
    assert len(recovered) == len(direct)
    by_id = {span["span_id"]: span for span in recovered}
    for span in direct:
        twin = by_id[span["span_id"]]
        assert twin["name"] == span["name"]
        assert twin["trace_id"] == span["trace_id"]
        assert twin["parent_id"] == span["parent_id"]
        assert twin["participant"] == span["participant"]
        assert twin["start_ms"] == pytest.approx(span["start_ms"])
        assert twin["end_ms"] == pytest.approx(span["end_ms"])


def test_bundle_accepts_trace_document_as_spans(golden_obs):
    bundle = build_bundle(
        journal=journal_snapshot(golden_obs),
        spans=to_chrome_trace(golden_obs),
    )
    assert len(bundle["spans"]) == len(golden_obs.spans)


# ----------------------------------------------------------------------
# Audit folding
# ----------------------------------------------------------------------
def _fake_audit():
    return {
        "suspicion": {"C-2": 1.0},
        "accused": ["C-2"],
        "events_seen": 140,
        "health": {},
        "findings": [
            {
                "kind": "equivocation",
                "suspect": "C-2",
                "suspect_kind": "node",
                "participant": "C",
                "score": 1.0,
                "summary": "two pre-prepares for one slot",
                "count": 2,
                "context": {},
                "evidence": [{"event_id": 5}, {"event_id": 9}],
            },
        ],
    }


def test_audit_findings_get_stable_ids_and_evidence_links(golden_obs):
    bundle = build_bundle(golden_obs, audit=_fake_audit())
    assert validate(bundle) == []
    (finding,) = bundle["audit"]["findings"]
    # Matches the forensics exporter's evidence file naming.
    assert finding["id"] == finding_id(0, "equivocation")
    assert finding["id"] == "finding-000-equivocation"
    assert finding["evidence_event_ids"] == [5, 9]


def test_audit_from_live_report_round_trips(golden_obs):
    from repro.obs.forensics.findings import AuditReport, Finding

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
    bad_audit = _fake_audit()
    bad_audit["findings"][0]["evidence"] = [{"event_id": 9999}]
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


def test_bundle_with_latency_section(golden_obs):
    from repro.obs.critpath import attribute_log

    bundle = build_bundle(
        golden_obs, latency=attribute_log(golden_obs.spans)
    )
    assert validate(bundle) == []
    assert bundle["latency"]["ops"] > 0
    assert bundle["latency"]["conservation"]["ok"] is True


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


def test_bundle_accepts_chaos_plan_dict(golden_obs):
    bundle = build_bundle(golden_obs, chaos=_plan().to_dict())
    assert len(bundle["chaos"]["actions"]) == 2


def test_bundle_rejects_malformed_chaos():
    with pytest.raises(TypeError):
        build_bundle(journal={"events": []}, chaos="crash everything")


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
