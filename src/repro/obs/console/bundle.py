"""Fold run artifacts into one ``repro.console/v2`` bundle.

:func:`build_bundle` is the producer side of the console: it accepts
whatever a run left behind — a live :class:`~repro.obs.Observability`
hub, a ``journal.json`` snapshot, a Chrome ``trace.json``, a
``metrics.json`` snapshot, an :class:`~repro.obs.forensics.findings.
AuditReport` (live or its ``report.json`` form) — and normalizes it
all into the schema documented in :mod:`repro.obs.console.schema`.

Normalization does three non-obvious things:

* **Topology recovery.** The bundle needs the site/node inventory to
  lay out the replay. Sites come from the
  :class:`~repro.sim.topology.Topology` (default: the paper's
  four-datacenter AWS matrix) plus any participant the journal saw;
  nodes come from ``deploy.unit`` events (authoritative membership +
  gateway role) with a fallback sweep over every event's observer and
  acting-node args, so even a journal from a partial run renders.
* **Span recovery.** Spans are taken from the hub when available, or
  reconstructed from a Chrome ``trace.json`` (the ``ph == "X"`` events
  carry ``trace_id``/``span_id`` in their args; the ``M`` metadata
  events map pid/tid back to participant/node).
* **Finding linkage.** Each audit finding gets a stable id
  (``finding-NNN-<kind>``, matching the evidence-bundle file names the
  forensics exporter writes) and an ``evidence_event_ids`` list so the
  replay can jump from an accusation to the verbatim journal events
  behind it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.obs.console.schema import SCHEMA_NAME, SCHEMA_VERSION, check
from repro.obs.exporters import journal_snapshot, metrics_snapshot

#: Event-arg keys whose values name acting nodes (voter, signer,
#: leader...) — used to sweep node ids out of a journal when no
#: ``deploy.unit`` events survive.
_NODE_ARG_KEYS = ("voter", "leader", "signer", "src")

DEFAULT_TITLE = "Blockplane operator console"


def finding_id(index: int, kind: str) -> str:
    """The stable id of finding ``index``: matches the
    ``evidence/finding-NNN-<kind>.json`` file names written by
    :meth:`~repro.obs.forensics.findings.AuditReport.export_evidence`."""
    return f"finding-{index:03d}-{kind}"


# ----------------------------------------------------------------------
# Section normalizers
# ----------------------------------------------------------------------
def _journal_section(journal: Any) -> Dict[str, Any]:
    """Accept an EventJournal, a ``journal.json`` snapshot dict, or a
    plain event list; emit the bundle's journal section."""
    if hasattr(journal, "emit"):
        return journal_snapshot(journal)
    if isinstance(journal, list):
        journal = {"events": journal}
    if not isinstance(journal, dict):
        raise TypeError(
            f"journal must be an EventJournal, dict, or list, "
            f"got {type(journal).__name__}"
        )
    events = [dict(event) for event in journal.get("events", [])]
    retained = len(events)
    dropped = int(journal.get("dropped", 0))
    return {
        "recorded": int(journal.get("recorded", retained + dropped)),
        "retained": retained,
        "dropped": dropped,
        # Older journal.json exports predate the header ids — recompute
        # from the retained events so every bundle carries them.
        "first_event_id": journal.get(
            "first_event_id",
            events[0]["event_id"] if events else None,
        ),
        "last_event_id": journal.get(
            "last_event_id",
            events[-1]["event_id"] if events else None,
        ),
        "events": events,
    }


def _span_dicts(spans: Any) -> List[Dict[str, Any]]:
    """Accept a SpanLog, an iterable of Span/dicts, or a Chrome trace
    document; emit plain span dicts."""
    if isinstance(spans, dict) and "traceEvents" in spans:
        return spans_from_chrome_trace(spans)
    out: List[Dict[str, Any]] = []
    for span in spans:
        out.append(span.to_dict() if hasattr(span, "to_dict") else dict(span))
    return out


def spans_from_chrome_trace(document: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Reconstruct bundle span dicts from Chrome trace-event JSON (the
    inverse of :func:`repro.obs.exporters.to_chrome_trace`)."""
    processes: Dict[int, str] = {}
    threads: Dict[tuple, str] = {}
    for event in document.get("traceEvents", []):
        if event.get("ph") != "M":
            continue
        name = event.get("args", {}).get("name", "")
        if event.get("name") == "process_name":
            processes[event.get("pid")] = name
        elif event.get("name") == "thread_name":
            threads[(event.get("pid"), event.get("tid"))] = name
    spans: List[Dict[str, Any]] = []
    for event in document.get("traceEvents", []):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id", None)
        trace_id = args.pop("trace_id", None)
        parent_id = args.pop("parent_id", None)
        start_ms = float(event.get("ts", 0.0)) / 1000.0
        spans.append(
            {
                "span_id": span_id,
                "trace_id": trace_id,
                "parent_id": parent_id,
                "name": event.get("name", ""),
                "category": event.get("cat", ""),
                "start_ms": start_ms,
                "end_ms": start_ms + float(event.get("dur", 0.0)) / 1000.0,
                "participant": processes.get(event.get("pid"), ""),
                "node": threads.get(
                    (event.get("pid"), event.get("tid")), ""
                ),
                "args": args,
            }
        )
    return spans


def _topology_section(
    topology: Any,
    events: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Merge the declared topology with what the journal observed."""
    if topology is None:
        from repro.sim.topology import aws_four_dc_topology

        topology = aws_four_dc_topology()
    if hasattr(topology, "to_dict"):
        topology = topology.to_dict()
    topology = dict(topology)
    sites: List[str] = list(topology.get("sites", []))
    known: Set[str] = set(sites)
    gateways: Set[str] = set()
    nodes: Dict[str, str] = {}

    def _add_site(site: str) -> None:
        if site and site not in known:
            known.add(site)
            sites.append(site)

    def _add_node(node_id: Any, site: str = "") -> None:
        if not isinstance(node_id, str) or not node_id:
            return
        owner = site or node_id.rsplit("-", 1)[0]
        if "-" not in node_id:
            return  # participant-level observer, not a node
        nodes.setdefault(node_id, owner)

    for event in events:
        participant = event.get("participant", "")
        _add_site(participant)
        _add_node(event.get("node", ""), participant)
        args = event.get("args", {})
        if event.get("kind") == "deploy.unit":
            for member in args.get("members", []):
                _add_node(member, participant)
            gateway = args.get("gateway")
            if isinstance(gateway, str):
                gateways.add(gateway)
        else:
            for key in _NODE_ARG_KEYS:
                _add_node(args.get(key, ""), "")
    for node_id in nodes:
        owner = nodes[node_id]
        _add_site(owner)
    topology["sites"] = sites
    topology.setdefault("rtt_ms", [])
    topology["nodes"] = [
        {
            "id": node_id,
            "site": site,
            "role": "gateway" if node_id in gateways else "replica",
        }
        for node_id, site in sorted(nodes.items())
    ]
    return topology


def _chaos_section(chaos: Any) -> Dict[str, Any]:
    """Accept a :class:`~repro.chaos.plan.FaultPlan`, its ``to_dict``
    form, or a pre-built chaos section; emit the bundle's ground-truth
    fault schedule. Open-ended actions (``end is None``, whole-run
    byzantine plants) are closed at the plan's horizon+settle extent so
    the renderer can always draw a finite window — the label keeps the
    ``∞`` notation."""
    if hasattr(chaos, "budget") and hasattr(chaos, "actions"):
        plan = chaos
    elif isinstance(chaos, dict) and "actions" in chaos:
        from repro.chaos.plan import FaultPlan

        plan = FaultPlan.from_dict(chaos)
    else:
        raise TypeError(
            f"chaos must be a FaultPlan or its dict form, "
            f"got {type(chaos).__name__}"
        )
    extent = plan.budget.horizon_ms + plan.budget.settle_ms
    actions = []
    for action in sorted(plan.actions, key=lambda a: (a.start, a.kind)):
        entry: Dict[str, Any] = {
            "kind": action.kind,
            "start": float(action.start),
            "end": float(action.end if action.end is not None else extent),
            "label": action.describe(),
        }
        if action.site:
            entry["site"] = action.site
        if action.peer:
            entry["peer"] = action.peer
        if action.kind in ("crash", "byzantine"):
            entry["node_index"] = action.node_index
        if action.probability:
            entry["probability"] = action.probability
        if action.behavior:
            entry["behavior"] = action.behavior
        actions.append(entry)
    return {
        "seed": plan.seed,
        "profile": plan.profile,
        "horizon_ms": plan.budget.horizon_ms,
        "settle_ms": plan.budget.settle_ms,
        "actions": actions,
    }


def _audit_section(audit: Any) -> Dict[str, Any]:
    """Accept an AuditReport or its ``report.json`` dict form; emit the
    bundle's audit section with finding ids and evidence links."""
    if hasattr(audit, "to_dict"):
        audit = audit.to_dict()
    findings = []
    for index, finding in enumerate(audit.get("findings", [])):
        evidence = finding.get("evidence", [])
        findings.append(
            {
                "id": finding_id(index, finding.get("kind", "unknown")),
                "kind": finding.get("kind", "unknown"),
                "suspect": finding.get("suspect", ""),
                "suspect_kind": finding.get("suspect_kind", ""),
                "participant": finding.get("participant", ""),
                "score": finding.get("score", 0.0),
                "summary": finding.get("summary", ""),
                "count": finding.get("count", 1),
                "context": dict(finding.get("context", {})),
                "evidence_event_ids": [
                    event["event_id"]
                    for event in evidence
                    if isinstance(event, dict) and "event_id" in event
                ],
            }
        )
    return {
        "suspicion": dict(audit.get("suspicion", {})),
        "accused": list(audit.get("accused", [])),
        "events_seen": audit.get("events_seen", 0),
        "health": dict(audit.get("health", {})),
        "findings": findings,
    }


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def build_bundle(
    obs: Any = None,
    *,
    journal: Any = None,
    spans: Any = None,
    metrics: Optional[Dict[str, Any]] = None,
    audit: Any = None,
    latency: Optional[Dict[str, Any]] = None,
    chaos: Any = None,
    topology: Any = None,
    title: str = DEFAULT_TITLE,
    validate: bool = True,
) -> Dict[str, Any]:
    """Assemble one schema-checked console bundle.

    Args:
        obs: Optional :class:`~repro.obs.Observability` hub — supplies
            the journal, spans, and metrics unless explicitly
            overridden by the keyword sections.
        journal: EventJournal, ``journal.json`` snapshot, or event list.
        spans: SpanLog, span/dict iterable, or Chrome trace document.
        metrics: ``metrics.json``-shaped snapshot.
        audit: AuditReport or its ``report.json`` dict form.
        latency: Critical-path attribution report (the
            :func:`repro.obs.critpath.attribute` dict) for the
            segment-budget panel.
        chaos: :class:`~repro.chaos.plan.FaultPlan` (or its dict form)
            whose injected actions render as ground truth beside the
            auditor's findings.
        topology: :class:`~repro.sim.topology.Topology` or its
            ``to_dict`` form; defaults to the paper's AWS topology.
        title: Replay heading.
        validate: Schema-check the assembled bundle (raises
            :class:`~repro.obs.console.schema.SchemaError`).
    """
    if obs is not None:
        if journal is None:
            journal = obs.journal
        if spans is None and len(obs.spans):
            spans = obs.spans
        if metrics is None and len(obs.registry):
            metrics = metrics_snapshot(obs)
    if journal is None:
        journal = {"events": []}
    journal_section = _journal_section(journal)
    document: Dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "title": title,
        "topology": _topology_section(
            topology, journal_section["events"]
        ),
        "journal": journal_section,
    }
    if spans is not None:
        document["spans"] = _span_dicts(spans)
    if metrics is not None:
        document["metrics"] = dict(metrics)
    if audit is not None:
        document["audit"] = _audit_section(audit)
    if latency is not None:
        document["latency"] = dict(latency)
    if chaos is not None:
        document["chaos"] = _chaos_section(chaos)
    if validate:
        check(document)
    return document


def load_bundle(path: str) -> Dict[str, Any]:
    """Read and schema-check a bundle JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    check(document)
    return document


def write_bundle(document: Dict[str, Any], path: str) -> str:
    """Schema-check and write a bundle; returns ``path``."""
    check(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")
    return path
