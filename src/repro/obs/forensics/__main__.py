"""Forensics CLI.

Usage::

    python -m repro obs-audit --seed 7 --runs 3 --profile byzantine
    python -m repro obs-audit --seed 7 --runs 3 --fault-free
    python -m repro obs-audit --seed 9 --runs 1 --json
    python -m repro obs-audit --seed 9 --runs 2 --strict --out DIR

Each run draws one chaos plan from the seed, replays it with the
flight recorder on and the online auditor attached, and scores the
auditor's accusations against the plan's ground truth (precision and
recall). ``--fault-free`` strips every action first — the zero-false-
accusation sweep. ``--strict`` exits 1 unless every run scores
precision and recall 1.0 (this is what CI's audit-smoke job runs).
``--out DIR`` writes per-run evidence bundles, the telemetry exports
and the console bundle under ``DIR/run-N``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs-audit",
        description="Audit chaos runs for byzantine behavior and score "
                    "detection quality against the injected ground truth.",
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="master seed (default 7)")
    parser.add_argument("--runs", type=int, default=3,
                        help="independent plans to draw (default 3)")
    parser.add_argument("--profile", default="byzantine",
                        help="chaos profile to draw from "
                             "(default byzantine)")
    parser.add_argument("--batches", type=int, default=6,
                        help="messages each site sends per run (default 6)")
    parser.add_argument("--horizon-ms", type=float, default=12_000.0,
                        help="virtual time by which faults end "
                             "(default 12000)")
    parser.add_argument("--settle-ms", type=float, default=8_000.0,
                        help="fault-free convergence window "
                             "(default 8000)")
    parser.add_argument("--fault-free", action="store_true",
                        help="strip all actions: any accusation is a "
                             "false positive")
    parser.add_argument("--no-probes", action="store_true",
                        help="disable canary signature probes "
                             "(promiscuous signers become undetectable)")
    parser.add_argument("--threshold", type=float, default=0.5,
                        help="suspicion threshold for accusation "
                             "(default 0.5)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON document instead of text")
    parser.add_argument("--out", metavar="DIR",
                        help="write per-run evidence bundles under DIR")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 unless every run has precision and "
                             "recall 1.0")
    return parser


def main(argv: List[str]) -> int:
    args = _build_parser().parse_args(argv)
    from repro.chaos.generator import PROFILES
    from repro.obs import export_all
    from repro.obs.forensics.quality import detection_sweep

    if args.profile not in PROFILES:
        print(
            f"unknown profile {args.profile!r}; choose from {PROFILES}",
            file=sys.stderr,
        )
        return 2

    audited = detection_sweep(
        args.seed,
        args.runs,
        profile=args.profile,
        batches=args.batches,
        horizon_ms=args.horizon_ms,
        settle_ms=args.settle_ms,
        probes=not args.no_probes,
        fault_free=args.fault_free,
    )

    documents = []
    for index, run in enumerate(audited):
        if args.out:
            directory = os.path.join(args.out, f"run-{index}")
            run.report.export_evidence(directory)
            with open(
                os.path.join(directory, "plan.json"), "w", encoding="utf-8"
            ) as handle:
                handle.write(run.plan.to_json() + "\n")
            with open(
                os.path.join(directory, "score.json"), "w", encoding="utf-8"
            ) as handle:
                handle.write(
                    json.dumps(run.score.to_dict(), indent=2) + "\n"
                )
            # The exports and the console bundle: journal + findings,
            # and the explorable replay (docs/OBSERVABILITY.md).
            export_all(
                run.obs, directory, audit=run.report,
                title=(
                    f"audit replay: seed {run.plan.seed}, "
                    f"profile {run.plan.profile}, run {index}"
                ),
            )
        if args.json:
            documents.append({
                "run": index,
                "plan": run.plan.to_dict(),
                "score": run.score.to_dict(),
                "report": run.report.to_dict(),
            })
        else:
            print(f"run-{index} {run.summary()}")
            for line in run.report.to_text().splitlines():
                print(f"  {line}")

    perfect = [run for run in audited if run.score.perfect]
    if args.json:
        print(json.dumps({
            "seed": args.seed,
            "profile": args.profile,
            "fault_free": args.fault_free,
            "perfect_runs": len(perfect),
            "total_runs": len(audited),
            "runs": documents,
        }, indent=2))
    else:
        print(
            f"\n{len(perfect)}/{len(audited)} runs with perfect "
            f"attribution (profile="
            f"{args.profile}{', fault-free' if args.fault_free else ''})"
        )
    if args.strict and len(perfect) != len(audited):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
