"""Operator-console CLI.

Usage::

    # Replay a past run: every export (--obs-out, chaos --obs-out,
    # obs-audit --out) writes its console.json beside the others:
    python -m repro console --bundle obs/console.json --out replay.html

    # One command from chaos plan to explorable replay (recorder on,
    # auditor attached):
    python -m repro console --chaos-seed 7 --profile byzantine \\
        --out replay.html

    # The canonical traced cross-DC commit (no inputs needed):
    python -m repro console --demo --out replay.html

    # Validate an archived bundle:
    python -m repro console --validate bundle.json

    # Serve the rendered page on stdlib http.server:
    python -m repro console --demo --serve --port 8123

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
    source.add_argument("--chaos-seed", type=int, metavar="SEED",
                        help="run one audited chaos plan from SEED and "
                             "render it")
    chaos = parser.add_argument_group("chaos-run options")
    chaos.add_argument("--profile", default="byzantine",
                       help="chaos profile for --chaos-seed "
                            "(default byzantine)")
    chaos.add_argument("--batches", type=int, default=6,
                       help="messages per site for --chaos-seed "
                            "(default 6)")
    chaos.add_argument("--horizon-ms", type=float, default=12_000.0,
                       help="fault horizon for --chaos-seed "
                            "(default 12000)")
    chaos.add_argument("--settle-ms", type=float, default=8_000.0,
                       help="settle window for --chaos-seed "
                            "(default 8000)")
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
    output.add_argument("--serve", action="store_true",
                        help="serve the rendered page over stdlib "
                             "http.server (Ctrl-C to stop)")
    output.add_argument("--host", default="127.0.0.1",
                        help="bind address for --serve "
                             "(default 127.0.0.1)")
    output.add_argument("--port", type=int, default=8000,
                        help="port for --serve (default 8000)")
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


def _chaos_bundle(
    args: argparse.Namespace, title: Optional[str]
) -> Dict[str, Any]:
    from repro.chaos.generator import PROFILES
    from repro.obs.console.bundle import build_bundle
    from repro.obs.forensics.quality import detection_sweep

    if args.profile not in PROFILES:
        raise SystemExit(
            f"unknown profile {args.profile!r}; choose from {PROFILES}"
        )
    (run,) = detection_sweep(
        args.chaos_seed, 1, profile=args.profile, batches=args.batches,
        horizon_ms=args.horizon_ms, settle_ms=args.settle_ms,
    )
    plan = run.plan
    print(f"chaos run: {run.summary()}", file=sys.stderr)
    return build_bundle(
        run.obs,
        audit=run.report,
        chaos=plan,
        title=title or (
            f"chaos replay: seed {plan.seed}, profile {plan.profile}"
        ),
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
        elif args.chaos_seed is not None:
            bundle = _chaos_bundle(args, args.title)
        elif args.demo:
            bundle = _demo_bundle(args.title)
        else:
            print(
                "error: no input — pass --bundle, --demo, or --chaos-seed",
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
    if args.serve:
        from repro.obs.console.serve import serve_html

        print(
            f"serving on http://{args.host}:{args.port}/ "
            "(Ctrl-C to stop)"
        )
        serve_html(html, host=args.host, port=args.port)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
