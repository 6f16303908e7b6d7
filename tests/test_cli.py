"""Tests for the `python -m repro` command-line entry point."""

import pytest

from repro.__main__ import main


def test_single_experiment_runs(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "130" in out  # C-I RTT


def test_unknown_experiment_rejected(capsys):
    assert main(["nonsense"]) == 2
    out = capsys.readouterr().out
    assert "unknown experiment" in out
    assert "fig7" in out  # the available list is shown
    assert "console" in out  # ...and the subcommand inventory


def test_help_lists_subcommands_and_experiments(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for subcommand in ("console", "chaos", "lint"):
        assert subcommand in out
    assert "obs-audit" not in out
    for experiment in ("table1", "fig4", "ablations"):
        assert experiment in out
    assert "--obs-out" in out


def test_subcommand_help_is_forwarded(capsys):
    # `python -m repro console --help` reaches the console's own
    # argparse parser (which exits 0 after printing usage).
    with pytest.raises(SystemExit) as excinfo:
        main(["console", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--bundle" in out
    # The bundle is the console's one input besides its own runs.
    for flag in ("--journal", "--trace", "--metrics", "--audit", "--plan"):
        assert flag not in out


def test_multiple_experiments_separated(capsys):
    assert main(["table1", "table1"]) == 0
    out = capsys.readouterr().out
    assert out.count("Table I") == 2
    assert "=" * 68 in out


def test_obs_audit_is_not_a_subcommand(capsys):
    # Audits run through `repro chaos` (both verdicts per run).
    assert main(["obs-audit"]) == 2
    assert "unknown experiment" in capsys.readouterr().out
