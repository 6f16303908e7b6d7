"""Chaos CLI.

Usage::

    python -m repro.chaos --seed 7 --runs 10 --profile mixed
    python -m repro.chaos --seed 3 --runs 5 --profile geo --obs-out DIR
    python -m repro.chaos --seed 2 --runs 2 --profile byzantine --strict
    python -m repro.chaos --seed 7 --runs 2 --fault-free --strict
    python -m repro.chaos --plan failing-plan.json --shrink
    python -m repro.chaos --seed 1 --runs 1 --show-plan

Each run draws one budget-bounded fault plan from the seed, executes it
against a fresh four-datacenter deployment with the byzantine auditor
attached, and prints two verdicts: the global invariant suite's, and
the auditor's accusations scored against the plan's ground truth
(precision and recall). Exit status 1 iff any run produced violations,
or, under ``--strict``, any run's attribution is imperfect.
``--fault-free`` strips every action first: any accusation is then a
false one.

``--shrink`` delta-debugs the first failing plan down to a minimal
reproducing schedule and prints a standalone reproduction script.
``--obs-out DIR`` writes every run's artifacts (plan JSON, violation
report, audit score and report, evidence bundles, telemetry exports,
console bundle) under ``DIR/run-N``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.chaos.generator import PROFILES, ScheduleGenerator
from repro.chaos.plan import FaultPlan
from repro.chaos.runner import ChaosResult, ChaosRunner, write_artifacts
from repro.chaos.shrink import repro_script, shrink_plan


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Seeded chaos runs with global invariant checking.",
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="master seed (default 7)")
    parser.add_argument("--runs", type=int, default=5,
                        help="independent runs to draw (default 5)")
    parser.add_argument("--profile", choices=PROFILES, default="mixed",
                        help="fault mix to draw from (default mixed)")
    parser.add_argument("--batches", type=int, default=8,
                        help="messages each site sends per run (default 8)")
    parser.add_argument("--horizon-ms", type=float, default=20_000.0,
                        help="virtual time by which generated faults end "
                             "(default 20000)")
    parser.add_argument("--settle-ms", type=float, default=15_000.0,
                        help="fault-free convergence window after the "
                             "horizon (default 15000)")
    parser.add_argument("--plan", metavar="FILE",
                        help="replay one plan from JSON instead of "
                             "generating (ignores --seed/--runs/--profile)")
    parser.add_argument("--shrink", action="store_true",
                        help="delta-debug the first failing plan to a "
                             "minimal reproduction")
    parser.add_argument("--fault-free", action="store_true",
                        help="strip every action: any accusation is a "
                             "false positive")
    parser.add_argument("--strict", action="store_true",
                        help="also exit 1 unless every run's attribution "
                             "has precision and recall 1.0")
    parser.add_argument("--obs-out", metavar="DIR",
                        help="write every run's artifacts under DIR/run-N")
    parser.add_argument("--show-plan", action="store_true",
                        help="print each plan's schedule before running")
    return parser


def _run_one(
    plan: FaultPlan,
    label: str,
    obs_out: Optional[str],
    show_plan: bool,
) -> ChaosResult:
    if show_plan:
        print(f"{label} schedule:")
        for line in plan.describe():
            print(f"  {line}")
    runner = ChaosRunner(plan)
    result = runner.run()
    print(f"{label} {result.summary()}")
    for violation in result.violations:
        print(f"    {violation}")
    if result.report is not None:
        for line in result.report.to_text().splitlines():
            print(f"  {line}")
    if obs_out is not None:
        directory = os.path.join(obs_out, label)
        write_artifacts(result, directory, obs=runner.obs)
        print(f"    artifacts: {directory}")
    return result


def main(argv: List[str]) -> int:
    args = _build_parser().parse_args(argv)
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            labelled = [("replay", FaultPlan.from_json(handle.read()))]
    else:
        generator = ScheduleGenerator(
            args.seed,
            profile=args.profile,
            batches=args.batches,
            horizon_ms=args.horizon_ms,
            settle_ms=args.settle_ms,
        )
        labelled = [
            (f"run-{run_index}", generator.generate(run_index))
            for run_index in range(args.runs)
        ]
    results = [
        _run_one(
            plan.with_actions(()) if args.fault_free else plan,
            label, args.obs_out, args.show_plan,
        )
        for label, plan in labelled
    ]

    failing = [result for result in results if not result.ok]
    attributed = [
        result for result in results
        if result.score is not None and result.score.perfect
    ]
    profile = "replay" if args.plan else args.profile
    print(
        f"\n{len(results) - len(failing)}/{len(results)} runs clean, "
        f"{len(attributed)}/{len(results)} with perfect attribution "
        f"(profile={profile}{', fault-free' if args.fault_free else ''})"
    )
    if failing and args.shrink:
        first = failing[0]
        print(
            f"\nshrinking failing plan "
            f"({len(first.plan.actions)} actions)..."
        )
        report = shrink_plan(first.plan)
        print(
            f"minimal plan: {len(report.minimal.actions)} actions "
            f"({report.removed} removed, {report.oracle_runs} oracle runs)"
        )
        for line in report.minimal.describe():
            print(f"  {line}")
        print("\nstandalone reproduction script:\n")
        print(repro_script(report.minimal))
        if args.obs_out:
            os.makedirs(args.obs_out, exist_ok=True)
            script_path = os.path.join(args.obs_out, "repro_minimal.py")
            with open(script_path, "w", encoding="utf-8") as handle:
                handle.write(repro_script(report.minimal))
            print(f"saved: {script_path}")
    if failing or (args.strict and len(attributed) != len(results)):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
