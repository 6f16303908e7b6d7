"""CLI: ``python -m repro.analysis [paths] [--rules ..] [--format ..]``.

Exit codes: 0 clean, 1 findings reported, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.framework import registered_checkers, run_report
from repro.analysis.reporters import (
    render_json,
    render_rules,
    render_sarif,
    render_text,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Protocol-aware static analysis for the Blockplane "
            "reproduction (determinism, quorum, proof-discipline and "
            "handler lints)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        print(render_rules(registered_checkers()))
        return 0
    rules = None
    if options.rules:
        rules = [rule.strip().upper() for rule in options.rules.split(",")]
    try:
        findings = run_report(options.paths, rules=rules)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if options.format == "json":
        print(render_json(findings))
    elif options.format == "sarif":
        print(render_sarif(findings, registered_checkers()))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
