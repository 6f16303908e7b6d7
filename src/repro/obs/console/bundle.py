"""Assemble one ``repro.console/v2`` bundle from a live hub.

:func:`build_bundle` is the producer side of the console: it reads a
run's :class:`~repro.obs.Observability` hub — the journal, the spans,
the metrics and, for a traced run, the critical-path attribution — plus
an optional :class:`~repro.obs.forensics.findings.AuditReport` and
:class:`~repro.chaos.plan.FaultPlan`, into the schema documented in
:mod:`repro.obs.console.schema`. :func:`repro.obs.export_all` writes
the result beside the other exports as ``console.json``.

Assembly does two non-obvious things:

* **Topology recovery.** The bundle needs the site/node inventory to
  lay out the replay. Sites come from the
  :class:`~repro.sim.topology.Topology` (default: the paper's
  four-datacenter AWS matrix) plus any participant the journal saw;
  nodes come from ``deploy.unit`` events (authoritative membership +
  gateway role) with a fallback sweep over every event's observer and
  acting-node args, so even a journal from a partial run renders.
* **Finding linkage.** Each audit finding gets a stable id
  (``finding-NNN-<kind>``, matching the evidence-bundle file names the
  forensics exporter writes) and an ``evidence_event_ids`` list so the
  replay can jump from an accusation to the verbatim journal events
  behind it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Set

from repro.obs.console.schema import SCHEMA_NAME, SCHEMA_VERSION, check
from repro.obs.critpath import attribute_log
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
# Sections
# ----------------------------------------------------------------------
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


def _chaos_section(plan: Any) -> Dict[str, Any]:
    """The bundle's ground-truth fault schedule from a
    :class:`~repro.chaos.plan.FaultPlan`. Open-ended actions (``end is
    None``, whole-run byzantine plants) are closed at the plan's
    horizon+settle extent so the renderer can always draw a finite
    window — the label keeps the ``∞`` notation."""
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
    """The bundle's audit section: an AuditReport's findings with
    finding ids and evidence links."""
    findings = []
    for index, finding in enumerate(audit.findings):
        findings.append(
            {
                "id": finding_id(index, finding.kind),
                "kind": finding.kind,
                "suspect": finding.suspect,
                "suspect_kind": finding.suspect_kind,
                "participant": finding.participant,
                "score": finding.score,
                "summary": finding.summary,
                "count": finding.count,
                "context": dict(finding.context),
                "evidence_event_ids": [
                    event["event_id"]
                    for event in finding.evidence
                    if isinstance(event, dict) and "event_id" in event
                ],
            }
        )
    return {
        "suspicion": audit.suspicion(),
        "accused": audit.accused(),
        "events_seen": audit.events_seen,
        "health": dict(audit.health),
        "findings": findings,
    }


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def build_bundle(
    obs: Any,
    *,
    audit: Any = None,
    chaos: Any = None,
    topology: Any = None,
    title: str = DEFAULT_TITLE,
    validate: bool = True,
) -> Dict[str, Any]:
    """Assemble one schema-checked console bundle from a hub.

    The journal, the spans and the metrics come from ``obs``; so does
    the latency section — the :func:`repro.obs.critpath.attribute_log`
    report for the segment-budget panel — when the hub traced commits
    that decompose into ops.

    Args:
        obs: The run's :class:`~repro.obs.Observability` hub.
        audit: :class:`~repro.obs.forensics.findings.AuditReport` for
            the auditor overlay.
        chaos: :class:`~repro.chaos.plan.FaultPlan` whose injected
            actions render as ground truth beside the auditor's
            findings.
        topology: :class:`~repro.sim.topology.Topology` or its
            ``to_dict`` form; defaults to the paper's AWS topology.
        title: Replay heading.
        validate: Schema-check the assembled bundle (raises
            :class:`~repro.obs.console.schema.SchemaError`).
    """
    journal = journal_snapshot(obs)
    document: Dict[str, Any] = {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "title": title,
        "topology": _topology_section(topology, journal["events"]),
        "journal": journal,
    }
    if len(obs.spans):
        document["spans"] = [span.to_dict() for span in obs.spans]
    if len(obs.registry):
        document["metrics"] = metrics_snapshot(obs)
    if audit is not None:
        document["audit"] = _audit_section(audit)
    if obs.tracing and len(obs.spans):
        latency = attribute_log(obs.spans)
        if latency["ops"]:
            document["latency"] = latency
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
