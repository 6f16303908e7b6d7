"""``repro.obs.console`` — the operator console.

Folds a run's observability hub (flight-recorder journal, span trees,
metrics, latency attribution) and auditor findings into one
schema-versioned ``repro.console/v2`` JSON bundle and renders it as a
**single self-contained HTML replay**: message flows animated on the
site topology, per-node swimlane timelines, and an auditor overlay that
badges suspects and links each finding to its verbatim evidence events.
Zero runtime dependencies beyond the standard library; the page needs
no server (``python -m http.server -d DIR`` serves a directory of them).

Entry point: ``python -m repro console`` (see
:mod:`repro.obs.console.__main__`). Documented in
``docs/OBSERVABILITY.md``.
"""

from repro.obs.console.bundle import (
    build_bundle,
    finding_id,
    load_bundle,
    write_bundle,
)
from repro.obs.console.render import render_html, write_html
from repro.obs.console.schema import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SchemaError,
    check,
    validate,
)

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "SchemaError",
    "build_bundle",
    "check",
    "finding_id",
    "load_bundle",
    "render_html",
    "validate",
    "write_bundle",
    "write_html",
]
