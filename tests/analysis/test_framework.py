"""Framework mechanics: registry, module contexts, suppressions."""

import pytest

from repro.analysis import (
    PARSE_ERROR_RULE,
    Suppressions,
    analyze_source,
    registered_checkers,
    run_report,
)
from repro.analysis.findings import Finding
from repro.analysis.framework import ModuleContext, _module_of

ALL_RULES = (
    "BP001", "BP002", "BP003", "BP004", "BP005",
    "BP006", "BP007", "BP009", "BP010", "BP012",
)


def fresh(rule):
    return [registered_checkers()[rule]()]


def test_all_documented_rules_are_registered():
    registry = registered_checkers()
    assert set(registry) == set(ALL_RULES)
    for rule, checker in registry.items():
        assert checker.rule == rule
        assert checker.summary, rule
        assert checker.rationale, rule


def test_module_name_derivation():
    assert _module_of("src/repro/pbft/replica.py") == "repro.pbft.replica"
    assert _module_of("src/repro/core/__init__.py") == "repro.core"
    assert _module_of("/tmp/scratch.py") == "scratch"


def test_protocol_scope():
    import ast

    ctx = ModuleContext("x.py", "", ast.parse(""), module="repro.pbft.replica")
    assert ctx.is_protocol
    ctx = ModuleContext("x.py", "", ast.parse(""), module="repro.obs.hub")
    assert not ctx.is_protocol


def test_parse_error_becomes_bp000():
    findings = analyze_source("def broken(:\n", "bad.py", [])
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_RULE


def test_line_suppression():
    source = "import time\ndef f():\n    return time.time()  # bp-lint: disable=BP001\n"
    findings = analyze_source(
        source, "x.py", fresh("BP001"), module="repro.core.x"
    )
    assert findings == []


def test_file_level_suppression():
    source = (
        "# bp-lint: disable=BP001\n"
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    )
    findings = analyze_source(
        source, "x.py", fresh("BP001"), module="repro.core.x"
    )
    assert findings == []


def test_disable_all_wildcard():
    source = (
        "# bp-lint: disable=all\n"
        "import time\n"
        "def f():\n"
        "    return time.time()\n"
    )
    findings = analyze_source(
        source, "x.py", fresh("BP001"), module="repro.core.x"
    )
    assert findings == []


def test_suppression_of_other_rule_does_not_mask():
    source = "import time\ndef f():\n    return time.time()  # bp-lint: disable=BP007\n"
    findings = analyze_source(
        source, "x.py", fresh("BP001"), module="repro.core.x"
    )
    assert [f.rule for f in findings] == ["BP001"]


def test_suppressions_distinguish_code_and_standalone_lines():
    sup = Suppressions(
        "# bp-lint: disable=BP002\n"
        "x = 1  # bp-lint: disable=BP007\n"
    )
    assert not sup.allows(Finding("BP002", "x.py", 99, 0, ""))
    assert not sup.allows(Finding("BP007", "x.py", 2, 0, ""))
    assert sup.allows(Finding("BP007", "x.py", 3, 0, ""))


def test_unknown_rule_selection_raises():
    with pytest.raises(ValueError, match="BP999"):
        run_report(["src/repro"], rules=["BP999"])


def test_run_analysis_on_tree(tmp_path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "clock.py").write_text(
        "import time\n\ndef now():\n    return time.time()\n"
    )
    findings = run_report([str(tmp_path)], rules=["BP001"]).findings
    assert [f.rule for f in findings] == ["BP001"]
    assert findings[0].line == 4


def test_overlapping_paths_are_analyzed_once(tmp_path):
    pkg = tmp_path / "repro" / "pbft"
    pkg.mkdir(parents=True)
    (pkg / "engine.py").write_text(
        "def f():\n    try:\n        pass\n    except:\n        pass\n"
    )
    for spelling in (pkg / "engine.py", pkg / ".." / "pbft" / "engine.py"):
        report = run_report([str(pkg), str(spelling)], rules=["BP006"])
        assert [(f.rule, f.line) for f in report.findings] == [("BP006", 4)]
