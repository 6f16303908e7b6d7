"""Operator-console CLI.

Usage::

    # Replay a past run: every export (--obs-out, chaos --obs-out)
    # writes its console.json beside the others:
    python -m repro console --bundle obs/console.json --out replay.html

    # An audited chaos run (auditor findings, plan as ground truth):
    python -m repro.chaos --seed 2 --runs 1 --profile byzantine \\
        --obs-out runs
    python -m repro console --bundle runs/run-0/console.json

    # The canonical traced cross-DC commit (no inputs needed):
    python -m repro console --demo --out replay.html

    # Validate an archived bundle:
    python -m repro console --validate bundle.json

The console only renders: the page is self-contained, and
``python -m http.server -d DIR`` serves a directory of them.
``python -m repro.obs.console`` is the same entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro console",
        description="Render a console bundle into a self-contained "
                    "HTML replay: message flows on the site topology, "
                    "per-node swimlanes, and auditor findings.",
    )
    source = parser.add_argument_group("inputs (pick one source)")
    source.add_argument("--bundle", metavar="FILE",
                        help="repro.console/v2 bundle, e.g. the "
                             "console.json an export wrote")
    source.add_argument("--demo", action="store_true",
                        help="render the canonical traced cross-DC "
                             "commit (golden journal)")
    output = parser.add_argument_group("outputs")
    output.add_argument("--out", metavar="FILE", default="replay.html",
                        help="HTML output path (default replay.html)")
    output.add_argument("--bundle-out", metavar="FILE",
                        help="also write the bundle JSON here")
    output.add_argument("--title",
                        help="replay heading (default derived from "
                             "the source)")
    output.add_argument("--validate", metavar="FILE",
                        help="schema-check an existing bundle and exit")
    return parser


def _read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _validate_file(path: str) -> int:
    from repro.obs.console.schema import validate

    try:
        document = _read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    errors = validate(document)
    if errors:
        for error in errors:
            print(f"schema violation: {error}", file=sys.stderr)
        return 1
    journal = document.get("journal", {})
    print(
        f"{path}: valid ({journal.get('retained', 0)} events, "
        f"{len(document.get('topology', {}).get('nodes', []))} nodes)"
    )
    return 0


def _demo_bundle(title: Optional[str]) -> Dict[str, Any]:
    from repro.obs.console.bundle import build_bundle
    from repro.obs.demo import trace_commit_lifecycle
    from repro.obs.hub import Observability

    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)
    return build_bundle(
        obs, title=title or "canonical cross-DC commit (C -> V)"
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.validate:
        return _validate_file(args.validate)

    from repro.obs.console.bundle import load_bundle, write_bundle
    from repro.obs.console.render import render_html
    from repro.obs.console.schema import SchemaError

    try:
        if args.bundle:
            bundle = load_bundle(args.bundle)
            if args.title:
                bundle["title"] = args.title
        elif args.demo:
            bundle = _demo_bundle(args.title)
        else:
            print(
                "error: no input — pass --bundle or --demo",
                file=sys.stderr,
            )
            return 2
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.bundle_out:
        write_bundle(bundle, args.bundle_out)
        print(f"bundle: {args.bundle_out}")
    html = render_html(bundle)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(html)
    journal = bundle.get("journal", {})
    print(
        f"replay: {args.out} ({journal.get('retained', 0)} events, "
        f"{len(html)} bytes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
