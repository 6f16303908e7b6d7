"""The ``repro.console/v2`` data-bundle schema.

The operator console is split into two halves: a *bundle* (one plain
JSON document folding everything a replay needs — journal events, span
trees, metrics, auditor findings, and the site topology) and a
*renderer* that embeds the bundle into a self-contained HTML page. The
bundle is the stable interface between them: any producer (the chaos
runner's artifact export, ``--obs-out``, a hand-rolled script) that
emits a valid bundle gets an explorable replay for free, and the HTML
can be regenerated from an archived bundle long after the run.

:func:`validate` returns every violation (empty list = valid),
:func:`check` raises :class:`SchemaError`, and CI's ``console-smoke``
job gates on it.

Top-level document::

    {
      "schema": "repro.console/v2",
      "schema_version": 2,
      "title": "...",                     # replay heading
      "topology": {
        "sites": ["C", "O", "V", "I"],
        "rtt_ms": [["C", "O", 19.0], ...],
        "intra_dc_one_way_ms": 0.18,
        "nodes": [{"id": "C-0", "site": "C", "role": "replica"}, ...]
      },
      "journal": {
        "recorded": 140, "retained": 140, "dropped": 0,
        "first_event_id": 1, "last_event_id": 140,
        "events": [<ProtocolEvent.to_dict()>, ...]
      },
      "spans": [<span dict>, ...],        # optional
      "metrics": {...},                   # optional metrics_snapshot
      "audit": {                          # optional
        "suspicion": {"C-2": 1.0, ...},
        "accused": ["C-2"],
        "findings": [{"id": "finding-000-equivocation",
                      "evidence_event_ids": [17, 23], ...}, ...]
      },
      "latency": {                        # optional: critpath
        "end_to_end_ms": {"p50": ..., "p99": ..., ...},
        "segments": [{"segment": "pbft.prepare", ...}, ...],
        ...                               # repro.obs.critpath.attribute()
      },
      "chaos": {                          # optional: ground truth
        "seed": 2, "profile": "byzantine",
        "actions": [{"kind": "crash", "site": "A", "start": 0.0,
                     "end": 5000.0, "label": "crash A[0] [0, 5000)"},
                    ...]
      }
    }

``latency`` is the critical-path attribution report and ``chaos`` the
injected fault plan — ground truth the replay renders next to the
auditor's detections. v2 is the only version the checker accepts.

The document records **no timestamps, hostnames, or environment
fingerprints** — a bundle is a pure function of the run it describes.
"""

from __future__ import annotations

from typing import Any, Dict, List

SCHEMA_NAME = "repro.console/v2"
SCHEMA_VERSION = 2

#: Required top-level fields and their types.
_TOP_FIELDS = {
    "schema": str,
    "schema_version": int,
    "title": str,
    "topology": dict,
    "journal": dict,
}

#: Optional top-level fields and their types.
_OPTIONAL_FIELDS = {
    "spans": list,
    "metrics": dict,
    "audit": dict,
    "latency": dict,
    "chaos": dict,
}

_CHAOS_ACTION_FIELDS = {
    "kind": str,
    "start": (int, float),
    "end": (int, float),
    "label": str,
}

_TOPOLOGY_FIELDS = {
    "sites": list,
    "rtt_ms": list,
    "nodes": list,
}

_JOURNAL_FIELDS = {
    "recorded": int,
    "retained": int,
    "dropped": int,
    "events": list,
}

_EVENT_FIELDS = {
    "event_id": int,
    "kind": str,
    "at_ms": (int, float),
    "participant": str,
    "node": str,
    "args": dict,
}

_FINDING_FIELDS = {
    "id": str,
    "kind": str,
    "suspect": str,
    "suspect_kind": str,
    "score": (int, float),
    "summary": str,
    "evidence_event_ids": list,
}


class SchemaError(ValueError):
    """A console bundle violates the schema."""


def _field_errors(where: str, obj: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """One violation per field of ``spec`` (name -> type) that ``obj``
    lacks or holds with the wrong type; a bool is never a number."""
    errors: List[str] = []
    for field, expected in spec.items():
        if field not in obj:
            errors.append(f"{where} missing field {field!r}")
        elif not isinstance(obj[field], expected) or isinstance(
            obj[field], bool
        ):
            errors.append(
                f"{where}.{field} must be {expected}, "
                f"got {type(obj[field]).__name__}"
            )
    return errors


def validate(document: Any) -> List[str]:
    """Return every schema violation in ``document`` (empty = valid)."""
    errors: List[str] = []
    if not isinstance(document, dict):
        return [f"document must be an object, got {type(document).__name__}"]
    for field, expected in _TOP_FIELDS.items():
        if field not in document:
            errors.append(f"missing top-level field {field!r}")
        elif not isinstance(document[field], expected):
            errors.append(
                f"field {field!r} must be {expected}, "
                f"got {type(document[field]).__name__}"
            )
    for field, expected in _OPTIONAL_FIELDS.items():
        if field in document and not isinstance(document[field], expected):
            errors.append(
                f"field {field!r} must be {expected}, "
                f"got {type(document[field]).__name__}"
            )
    schema = document.get("schema")
    if isinstance(schema, str) and schema != SCHEMA_NAME:
        errors.append(f"schema must be {SCHEMA_NAME!r}, got {schema!r}")
    version = document.get("schema_version")
    if version is not None and version != SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    topology = document.get("topology")
    if isinstance(topology, dict):
        errors.extend(_validate_topology(topology))
    journal = document.get("journal")
    if isinstance(journal, dict):
        errors.extend(_validate_journal(journal))
    audit = document.get("audit")
    if isinstance(audit, dict):
        errors.extend(_validate_audit(audit, journal))
    latency = document.get("latency")
    if isinstance(latency, dict):
        errors.extend(_validate_latency(latency))
    chaos = document.get("chaos")
    if isinstance(chaos, dict):
        errors.extend(_validate_chaos(chaos, topology))
    return errors


def _validate_topology(topology: Dict[str, Any]) -> List[str]:
    errors = _field_errors("topology", topology, _TOPOLOGY_FIELDS)
    sites = topology.get("sites")
    site_set = set(sites) if isinstance(sites, list) else set()
    if isinstance(sites, list):
        if not sites:
            errors.append("topology.sites must not be empty")
        if len(site_set) != len(sites):
            errors.append("topology.sites contains duplicates")
    for index, edge in enumerate(topology.get("rtt_ms") or []):
        where = f"topology.rtt_ms[{index}]"
        if (
            not isinstance(edge, list)
            or len(edge) != 3
            or not isinstance(edge[0], str)
            or not isinstance(edge[1], str)
            or not isinstance(edge[2], (int, float))
        ):
            errors.append(f"{where} must be [site_a, site_b, rtt_ms]")
            continue
        if site_set and (edge[0] not in site_set or edge[1] not in site_set):
            errors.append(f"{where} references an unknown site")
    seen_nodes = set()
    for index, node in enumerate(topology.get("nodes") or []):
        where = f"topology.nodes[{index}]"
        if not isinstance(node, dict):
            errors.append(f"{where} must be an object")
            continue
        for field in ("id", "site", "role"):
            if not isinstance(node.get(field), str):
                errors.append(f"{where}.{field} must be a string")
        node_id = node.get("id")
        if node_id in seen_nodes:
            errors.append(f"duplicate topology node id {node_id!r}")
        seen_nodes.add(node_id)
        if site_set and node.get("site") not in site_set:
            errors.append(f"{where} references unknown site {node.get('site')!r}")
    return errors


def _validate_journal(journal: Dict[str, Any]) -> List[str]:
    errors = _field_errors("journal", journal, _JOURNAL_FIELDS)
    for field in ("first_event_id", "last_event_id"):
        value = journal.get(field)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool)
        ):
            errors.append(f"journal.{field} must be an integer or null")
    events = journal.get("events")
    if isinstance(events, list):
        retained = journal.get("retained")
        if isinstance(retained, int) and retained != len(events):
            errors.append(
                f"journal.retained is {retained} but "
                f"{len(events)} events are present"
            )
        previous_id = 0
        for index, event in enumerate(events):
            where = f"journal.events[{index}]"
            if not isinstance(event, dict):
                errors.append(f"{where} must be an object")
                continue
            errors.extend(_field_errors(where, event, _EVENT_FIELDS))
            event_id = event.get("event_id")
            if isinstance(event_id, int) and not isinstance(event_id, bool):
                if event_id <= previous_id:
                    errors.append(
                        f"{where}.event_id {event_id} is not strictly "
                        "increasing"
                    )
                previous_id = event_id
    return errors


def _validate_audit(
    audit: Dict[str, Any], journal: Any
) -> List[str]:
    errors = _field_errors(
        "audit", audit, {"suspicion": dict, "accused": list, "findings": list}
    )
    event_ids = set()
    if isinstance(journal, dict):
        for event in journal.get("events") or []:
            if isinstance(event, dict):
                event_ids.add(event.get("event_id"))
    seen_ids = set()
    for index, finding in enumerate(audit.get("findings") or []):
        where = f"audit.findings[{index}]"
        if not isinstance(finding, dict):
            errors.append(f"{where} must be an object")
            continue
        errors.extend(_field_errors(where, finding, _FINDING_FIELDS))
        finding_id = finding.get("id")
        if finding_id in seen_ids:
            errors.append(f"duplicate finding id {finding_id!r}")
        seen_ids.add(finding_id)
        # Evidence links must stay resolvable inside the bundle: a
        # finding pointing at an event the journal no longer retains
        # would render as a dead link in the replay.
        for evidence_id in finding.get("evidence_event_ids") or []:
            if not isinstance(evidence_id, int) or isinstance(
                evidence_id, bool
            ):
                errors.append(
                    f"{where}.evidence_event_ids must be integers"
                )
                break
            if event_ids and evidence_id not in event_ids:
                errors.append(
                    f"{where} cites event {evidence_id} which is not "
                    "retained in the bundle's journal"
                )
    return errors


def _validate_latency(latency: Dict[str, Any]) -> List[str]:
    """The v2 ``latency`` section: the critical-path attribution
    report (the shape :func:`repro.obs.critpath.attribute` returns)."""
    errors: List[str] = []
    end_to_end = latency.get("end_to_end_ms")
    if not isinstance(end_to_end, dict) or not all(
        isinstance(end_to_end.get(q), (int, float))
        and not isinstance(end_to_end.get(q), bool)
        for q in ("p50", "p90", "p99")
    ):
        errors.append("latency.end_to_end_ms must carry numeric p50/p90/p99")
    segments = latency.get("segments")
    if not isinstance(segments, list):
        errors.append("latency.segments must be a list")
    else:
        for index, entry in enumerate(segments):
            if not isinstance(entry, dict) or not isinstance(
                entry.get("segment"), str
            ):
                errors.append(
                    f"latency.segments[{index}] must be an object with "
                    "a 'segment' name"
                )
    return errors


def _validate_chaos(chaos: Dict[str, Any], topology: Any) -> List[str]:
    """The v2 ``chaos`` section: the injected fault plan (ground
    truth). Sites referenced by actions must exist in the topology so
    the renderer can always place a fault window on a swimlane."""
    errors: List[str] = []
    actions = chaos.get("actions")
    if not isinstance(actions, list):
        return ["chaos.actions must be a list"]
    sites = set()
    if isinstance(topology, dict) and isinstance(topology.get("sites"), list):
        sites = set(topology["sites"])
    for index, action in enumerate(actions):
        where = f"chaos.actions[{index}]"
        if not isinstance(action, dict):
            errors.append(f"{where} must be an object")
            continue
        errors.extend(_field_errors(where, action, _CHAOS_ACTION_FIELDS))
        start, end = action.get("start"), action.get("end")
        if (
            isinstance(start, (int, float))
            and isinstance(end, (int, float))
            and end < start
        ):
            errors.append(f"{where}: end {end} precedes start {start}")
        site = action.get("site")
        if site is not None and not isinstance(site, str):
            errors.append(f"{where}.site must be a string or null")
        elif isinstance(site, str) and site and sites and site not in sites:
            errors.append(f"{where} references unknown site {site!r}")
    return errors


def check(document: Dict[str, Any]) -> None:
    """Raise :class:`SchemaError` listing every violation, if any."""
    errors = validate(document)
    if errors:
        raise SchemaError("; ".join(errors))
