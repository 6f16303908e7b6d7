"""Golden-journal rendering: the self-contained HTML replay.

The renderer is a pure function of the bundle, so the canonical
140-event lifecycle journal pins the page exactly: the embedded JSON
round-trips, the topology node set is complete, every finding id
survives into the page, and nothing in the document reaches for the
network.
"""

import json
import re

import pytest

from repro.obs import Observability
from repro.obs.console import build_bundle, render_html
from repro.obs.demo import trace_commit_lifecycle
from repro.obs.forensics.findings import AuditReport, Finding

_FAKE_AUDIT = AuditReport(
    findings=[
        Finding(
            kind="equivocation", suspect="C-2",
            suspect_kind="replica", participant="C",
            score=1.0, summary="two pre-prepares for slot 1",
            count=2, evidence=({"event_id": 5}, {"event_id": 9}),
        ),
        Finding(
            kind="silent-replica", suspect="V-3",
            suspect_kind="replica", participant="V",
            score=0.6, summary="no votes after slot 2",
            evidence=({"event_id": 100},),
        ),
    ],
    events_seen=140,
)


@pytest.fixture(scope="module")
def golden_bundle():
    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)
    return build_bundle(obs, audit=_FAKE_AUDIT, title="golden replay")


@pytest.fixture(scope="module")
def golden_page(golden_bundle) -> str:
    return render_html(golden_bundle)


def _embedded_bundle(page: str) -> dict:
    match = re.search(
        r'<script id="bundle" type="application/json">(.*?)</script>',
        page,
        re.DOTALL,
    )
    assert match, "embedded bundle block missing"
    return json.loads(match.group(1).replace("<\\/", "</"))


# ----------------------------------------------------------------------
# The golden page, pinned
# ----------------------------------------------------------------------
def test_page_embeds_the_exact_bundle(golden_page, golden_bundle):
    embedded = _embedded_bundle(golden_page)
    assert embedded == json.loads(json.dumps(golden_bundle))
    assert len(embedded["journal"]["events"]) == 140


def test_page_pins_the_golden_event_count(golden_page):
    assert "140 events" in golden_page
    embedded = _embedded_bundle(golden_page)
    ids = [e["event_id"] for e in embedded["journal"]["events"]]
    assert ids == list(range(1, 141))


def test_page_carries_the_full_topology_node_set(golden_page):
    embedded = _embedded_bundle(golden_page)
    assert {node["id"] for node in embedded["topology"]["nodes"]} == {
        "C-0", "C-1", "C-2", "C-3", "V-0", "V-1", "V-2", "V-3"
    }
    assert embedded["topology"]["sites"] == ["C", "O", "V", "I"]
    # The noscript fallback lists them too.
    for node_id in ("C-0", "V-3"):
        assert node_id in golden_page


def test_page_carries_every_finding_id(golden_page):
    embedded = _embedded_bundle(golden_page)
    ids = [f["id"] for f in embedded["audit"]["findings"]]
    assert ids == [
        "finding-000-equivocation", "finding-001-silent-replica"
    ]
    for finding_id in ids:
        assert finding_id in golden_page
    assert "accused: C-2, V-3" in golden_page


def test_page_is_self_contained(golden_page):
    # One document, no external fetches: every src/href would be a
    # network dependency breaking offline replay.
    assert golden_page.startswith("<!DOCTYPE html>")
    assert " src=" not in golden_page
    assert "href=" not in golden_page
    assert "@import" not in golden_page
    assert "fetch(" not in golden_page
    assert "XMLHttpRequest" not in golden_page
    # Inline CSS + JS are present.
    assert golden_page.count("<style>") == 1
    assert golden_page.count("<script>") == 1


def test_page_escapes_script_terminators():
    obs = Observability(enabled=True)
    obs.event("log.append", participant="C", node="C-0",
              payload="</script><script>alert(1)</script>")
    page = render_html(build_bundle(obs))
    assert "</script><script>alert(1)" not in page
    embedded = _embedded_bundle(page)
    (event,) = embedded["journal"]["events"]
    assert event["args"]["payload"] == "</script><script>alert(1)</script>"


def test_title_is_html_escaped():
    page = render_html(
        build_bundle(
            Observability(enabled=True), title="<img src=x onerror=alert(1)>"
        )
    )
    # The raw string may only survive inside the JSON data block — the
    # markup half must carry the escaped form.
    markup = re.sub(
        r'<script id="bundle" type="application/json">.*?</script>',
        "", page, flags=re.DOTALL,
    )
    assert "<img src=x" not in markup
    assert "&lt;img" in markup


# ----------------------------------------------------------------------
# Eviction banner
# ----------------------------------------------------------------------
def test_no_banner_on_a_complete_journal(golden_page):
    assert "evicted before this window" not in golden_page


def test_eviction_banner_names_the_lost_window():
    obs = Observability(enabled=True, max_events=10)
    for index in range(25):
        obs.event("pbft.vote", participant="C", node="C-0", voter="C-1")
    page = render_html(build_bundle(obs))
    assert (
        "15 events evicted before this window "
        "(first retained event id 16)"
    ) in page


# ----------------------------------------------------------------------
# v2 panels: flame view, latency budget, chaos ground truth
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def v2_page() -> str:
    from repro.chaos.plan import FaultAction, FaultPlan

    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)
    plan = FaultPlan(
        seed=3,
        actions=(
            FaultAction(kind="crash", site="C", node_index=1,
                        start=10.0, end=50.0),
        ),
    )
    bundle = build_bundle(obs, chaos=plan, title="v2 replay")
    return render_html(bundle)


def test_v2_page_is_self_contained(v2_page):
    assert " src=" not in v2_page
    assert "href=" not in v2_page


def test_v2_page_has_flame_and_latency_panels(v2_page):
    assert 'id="flame-box"' in v2_page
    assert 'id="trace-pick"' in v2_page
    assert 'id="latency-box"' in v2_page
    assert 'id="chaos-list"' in v2_page


def test_v2_page_embeds_latency_and_chaos_sections(v2_page):
    bundle = _embedded_bundle(v2_page)
    assert bundle["latency"]["conservation"]["ok"] is True
    assert bundle["chaos"]["actions"][0]["label"] == "crash C[1] [10, 50)"


def test_v2_stats_line_counts_attribution_and_faults(v2_page):
    assert "ops attributed" in v2_page
    assert "1 injected faults" in v2_page


def test_v1_bundle_without_new_sections_still_renders():
    # Panels exist but the JS falls back to empty notes — an untraced,
    # chaos-free run's bundle carries neither section.
    obs = Observability(enabled=True, tracing=False)
    trace_commit_lifecycle(obs)
    page = render_html(build_bundle(obs))
    bundle = _embedded_bundle(page)
    assert "latency" not in bundle
    assert "chaos" not in bundle
    assert 'id="flame-box"' in page


def test_noscript_lists_injected_faults(v2_page):
    noscript = v2_page.split("<noscript>")[1].split("</noscript>")[0]
    assert "injected: crash C[1]" in noscript
    assert "latency:" in noscript
