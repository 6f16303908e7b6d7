"""SARIF reporter and the JSON interproc section."""

import json

from repro.analysis.__main__ import main
from repro.analysis.findings import Finding
from repro.analysis.framework import registered_checkers
from repro.analysis.reporters import render_json, render_sarif


def bad_module(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    target = pkg / "clock.py"
    target.write_text("import time\n\ndef now():\n    return time.time()\n")
    return target


def test_sarif_document_shape():
    finding = Finding("BP001", "src/repro/core/x.py", 4, 11, "wall-clock")
    document = json.loads(render_sarif([finding], registered_checkers()))
    assert document["version"] == "2.1.0"
    (run,) = document["runs"]
    assert run["tool"]["driver"]["name"] == "bp-lint"
    (rule,) = run["tool"]["driver"]["rules"]
    assert rule["id"] == "BP001"
    assert rule["shortDescription"]["text"]
    (result,) = run["results"]
    assert result["ruleId"] == "BP001"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/core/x.py"
    assert location["region"] == {"startLine": 4, "startColumn": 12}


def test_json_interproc_section():
    document = json.loads(
        render_json([], interproc={"unresolved_fraction": 0.05})
    )
    assert document["interproc"]["unresolved_fraction"] == 0.05
    assert "interproc" not in json.loads(render_json([]))


def test_cli_sarif_format(tmp_path, capsys):
    bad = bad_module(tmp_path)
    assert main(["--format", "sarif", str(bad)]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["runs"][0]["results"][0]["ruleId"] == "BP001"

