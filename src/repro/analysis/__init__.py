"""repro.analysis — protocol-aware static analysis for Blockplane.

An AST-based lint framework whose rules encode the *protocol* "
invariants generic linters cannot see: determinism of the seeded
simulation (BP001/BP007), quorum thresholds derived from the
configured fault model (BP002), signature/proof discipline on the
receive path (BP003/BP005), handler purity (BP004), exception
discipline (BP006), interprocedural wire-taint and trust laundering
(BP009/BP010), and the stale-suppression audit (BP012).

Run it as ``python -m repro.analysis [paths]`` (or
``python -m repro lint``); see ``docs/STATIC_ANALYSIS.md`` for the
rule catalogue and how to add a checker.
"""

from repro.analysis.findings import Finding, PARSE_ERROR_RULE
from repro.analysis.framework import (
    Checker,
    ModuleContext,
    Project,
    Report,
    Suppressions,
    analyze_source,
    register,
    registered_checkers,
    run_report,
)

__all__ = [
    "Checker",
    "Finding",
    "ModuleContext",
    "PARSE_ERROR_RULE",
    "Project",
    "Report",
    "Suppressions",
    "analyze_source",
    "register",
    "registered_checkers",
    "run_report",
]
