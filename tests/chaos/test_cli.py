"""Tests for the chaos CLI entry points: both verdicts (invariants and
attribution), exit codes, and the per-run artifacts the console
replays."""

import contextlib
import io
import json
import os
import re

import pytest

from repro.chaos.__main__ import main as chaos_main
from repro.chaos.invariants import Violation
from repro.chaos.plan import FaultAction, FaultBudget, FaultPlan
from repro.__main__ import main as repro_main
from repro.obs.console.__main__ import main as console_main

#: The audit sweeps' plan sizes (``make audit``).
_AUDIT_SIZES = ["--batches", "6", "--horizon-ms", "12000",
                "--settle-ms", "8000"]
_BYZANTINE_SEED_2 = ["--seed", "2", "--runs", "1", "--profile",
                     "byzantine", *_AUDIT_SIZES, "--strict"]


def small_plan(*actions):
    return FaultPlan(
        seed=9,
        profile="crash",
        budget=FaultBudget(f_independent=1, f_geo=0,
                           horizon_ms=3_000.0, settle_ms=1_500.0),
        actions=tuple(actions),
        batches=1,
    )


def write_plan(tmp_path, plan):
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json(), encoding="utf-8")
    return str(path)


def test_replaying_a_clean_plan_exits_zero(tmp_path, capsys):
    path = write_plan(tmp_path, small_plan())
    assert chaos_main(["--plan", path]) == 0
    out = capsys.readouterr().out
    assert "1/1 runs clean" in out


def test_over_budget_plan_fails_and_shrinks(tmp_path, capsys):
    path = write_plan(tmp_path, small_plan(
        FaultAction(kind="crash", site="V", node_index=1,
                    start=500.0, end=1_500.0),
        FaultAction(kind="crash", site="V", node_index=2,
                    start=800.0, end=1_400.0),
    ))
    out_dir = str(tmp_path / "artifacts")
    code = chaos_main(["--plan", path, "--shrink", "--obs-out", out_dir])
    assert code == 1
    out = capsys.readouterr().out
    assert "minimal plan:" in out
    assert "standalone reproduction script" in out
    repro = os.path.join(out_dir, "repro_minimal.py")
    assert os.path.exists(repro)
    with open(repro, "r", encoding="utf-8") as handle:
        compile(handle.read(), repro, "exec")


def test_obs_out_writes_artifacts_for_every_run(tmp_path):
    clean = small_plan()
    out_dir = tmp_path / "artifacts"
    assert chaos_main(
        ["--plan", write_plan(tmp_path, clean), "--obs-out", str(out_dir)]
    ) == 0
    run_dir = out_dir / "replay"
    assert (run_dir / "violations.txt").read_text() == "no violations\n"
    for name in ("plan.json", "score.json", "report.json", "console.json"):
        assert (run_dir / name).is_file()

    failing = small_plan(
        FaultAction(kind="crash", site="V", node_index=1,
                    start=500.0, end=1_500.0),
        FaultAction(kind="crash", site="V", node_index=2,
                    start=800.0, end=1_400.0),
    )
    failing_path = write_plan(tmp_path, failing)
    assert chaos_main(["--plan", failing_path, "--obs-out", str(out_dir)]) == 1
    with open(run_dir / "plan.json", "r", encoding="utf-8") as handle:
        assert FaultPlan.from_dict(json.load(handle)) == failing
    assert "budget" in (run_dir / "violations.txt").read_text()


def test_generated_sweep_with_short_horizon_is_clean(capsys):
    assert chaos_main(
        ["--seed", "3", "--runs", "1", "--profile", "crash",
         "--horizon-ms", "4000", "--settle-ms", "2000"]
    ) == 0
    assert "1/1 runs clean" in capsys.readouterr().out


def test_repro_main_forwards_chaos_subcommand(tmp_path, capsys):
    path = write_plan(tmp_path, small_plan())
    assert repro_main(["chaos", "--plan", path]) == 0
    assert "1/1 runs clean" in capsys.readouterr().out


def test_unknown_profile_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        chaos_main(["--profile", "no-such-profile"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.fixture(scope="module")
def byzantine_run(tmp_path_factory):
    """The strict seed-2 byzantine run with every artifact written:
    (exit code, printed text, ``run-0`` directory)."""
    out = tmp_path_factory.mktemp("chaos-artifacts")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = chaos_main([*_BYZANTINE_SEED_2, "--obs-out", str(out)])
    return code, printed.getvalue(), out / "run-0"


def test_strict_byzantine_run_writes_evidence_bundle(byzantine_run):
    code, text, run_dir = byzantine_run
    assert code == 0  # invariant-clean, perfect attribution
    for name in ("plan.json", "violations.txt", "score.json",
                 "report.json", "metrics.json", "metrics.prom",
                 "trace.json", "journal.json", "console.json",
                 "console.html"):
        assert (run_dir / name).is_file(), name
    score = json.loads((run_dir / "score.json").read_text())
    assert score["precision"] == 1.0 and score["recall"] == 1.0
    assert score["expected"] == score["detected"] != []
    report = json.loads((run_dir / "report.json").read_text())
    assert report["accused"] == score["detected"]
    assert sorted((run_dir / "evidence").iterdir())  # one per finding
    assert "1/1 runs clean, 1/1 with perfect attribution" in text
    assert "ACCUSED" in text


def test_chaos_artifacts_replay_in_console(byzantine_run, tmp_path):
    _code, _text, run_dir = byzantine_run
    page_path = tmp_path / "replay.html"
    assert console_main([
        "--bundle", str(run_dir / "console.json"), "--out", str(page_path),
    ]) == 0
    page = page_path.read_text(encoding="utf-8")
    assert page.startswith("<!DOCTYPE html>")
    embedded = json.loads(re.search(
        r'<script id="bundle" type="application/json">(.*?)</script>',
        page, re.DOTALL,
    ).group(1).replace("<\\/", "</"))
    plan = json.loads((run_dir / "plan.json").read_text())
    score = json.loads((run_dir / "score.json").read_text())
    assert len(embedded["chaos"]["actions"]) == len(plan["actions"])
    assert sorted(
        {finding["suspect"] for finding in embedded["audit"]["findings"]}
    ) == score["detected"]


@pytest.fixture(scope="module")
def fault_free_run(tmp_path_factory):
    """The strict seed-7 byzantine run with ``--fault-free``:
    (exit code, printed text, ``run-0`` directory)."""
    out = tmp_path_factory.mktemp("fault-free")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = chaos_main([
            "--seed", "7", "--runs", "1", "--profile", "byzantine",
            *_AUDIT_SIZES, "--fault-free", "--strict", "--obs-out", str(out),
        ])
    return code, printed.getvalue(), out / "run-0"


def test_fault_free_flag_strips_actions(fault_free_run):
    _code, text, run_dir = fault_free_run
    assert json.loads((run_dir / "plan.json").read_text())["actions"] == []
    assert "(profile=byzantine, fault-free)" in text


def test_fault_free_strict_run_accuses_nobody(fault_free_run):
    code, text, run_dir = fault_free_run
    assert code == 0  # fault-free: zero accusations, trivially perfect
    score = json.loads((run_dir / "score.json").read_text())
    assert score["expected"] == [] == score["detected"]
    report = json.loads((run_dir / "report.json").read_text())
    assert report["accused"] == []
    # The health/SLO summary rides along in the report document.
    assert report["health"]["participants"]
    assert "1/1 runs clean, 1/1 with perfect attribution" in text


def test_exit_status_combines_both_verdicts(monkeypatch, capsys):
    # One planted invariant violation fails the run even though the
    # auditor attributes every plant.
    monkeypatch.setattr(
        "repro.chaos.runner.check_at_most_once",
        lambda deployment: [Violation("at-most-once", "planted")],
    )
    assert chaos_main(_BYZANTINE_SEED_2) == 1
    out = capsys.readouterr().out
    assert "attribution perfect precision=1.00 recall=1.00" in out
    assert "0/1 runs clean, 1/1 with perfect attribution" in out


def test_strict_fails_imperfect_attribution(tmp_path, monkeypatch, capsys):
    # An invariant-clean run whose auditor missed a suspect passes
    # unless --strict.
    monkeypatch.setattr(
        "repro.obs.forensics.quality.expected_accusations",
        lambda plan, auditor: {"C-0"},
    )
    path = write_plan(tmp_path, small_plan())
    assert chaos_main(["--plan", path]) == 0
    assert chaos_main(["--plan", path, "--strict"]) == 1
    assert "attribution IMPERFECT" in capsys.readouterr().out
