"""The repository must satisfy its own lints, and the CLI contract
(exit codes, JSON shape) must hold."""

import json
import pathlib
import re

import pytest

from repro.analysis import run_report
from repro.analysis.__main__ import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_src_repro_is_clean():
    findings = run_report([str(REPO_ROOT / "src" / "repro")])
    assert findings == [], "\n".join(str(f) for f in findings)


def test_tests_are_clean():
    findings = run_report([str(REPO_ROOT / "tests")])
    assert findings == [], "\n".join(str(f) for f in findings)


def test_cli_exit_zero_on_clean_tree(capsys):
    code = main([str(REPO_ROOT / "src" / "repro" / "pbft" / "quorums.py")])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_one_with_findings(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "clock.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef now():\n    return time.time()\n")
    code = main([str(bad)])
    assert code == 1
    assert "BP001" in capsys.readouterr().out


def test_cli_exit_two_on_unknown_rule(capsys):
    code = main(["--rules", "BP999", str(REPO_ROOT / "src" / "repro")])
    assert code == 2
    assert "BP999" in capsys.readouterr().err


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "repro" / "core" / "clock.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\ndef now():\n    return time.time()\n")
    code = main(["--format", "json", str(bad)])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["count"] == 1
    (finding,) = document["findings"]
    assert finding["rule"] == "BP001"
    assert finding["line"] == 4


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^BP\d{3}", out, re.M) == [
        "BP001", "BP002", "BP003", "BP004", "BP005",
        "BP006", "BP007", "BP012",
    ]


def test_cli_retired_interproc_flags_are_usage_errors(capsys):
    for flag in (["--interproc"], ["--callgraph-out", "graph.json"]):
        with pytest.raises(SystemExit) as exit_info:
            main([*flag, str(REPO_ROOT / "src" / "repro")])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err
