"""BP012: stale suppressions and the rationale requirement."""

from repro.analysis.framework import Suppressions, run_report


def write_module(tmp_path, source, name="mod.py"):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True, exist_ok=True)
    target = pkg / name
    target.write_text(source)
    return target


def rules_of(findings):
    return [f.rule for f in findings]


def test_rationale_is_parsed_from_the_comment():
    sup = Suppressions(
        "# bp-lint: disable=BP002 -- the one home of the formulas\n"
        "x = 1  # bp-lint: disable=BP007\n"
    )
    file_entry, line_entry = sup.entries
    assert file_entry.file_level
    assert file_entry.rationale == "the one home of the formulas"
    assert not line_entry.file_level
    assert line_entry.rationale is None


def test_live_suppression_with_rationale_is_clean(tmp_path):
    write_module(
        tmp_path,
        "import time\n"
        "\n"
        "def now():\n"
        "    return time.time()  # bp-lint: disable=BP001 -- test seam\n",
    )
    findings = run_report([str(tmp_path)], rules=["BP001", "BP012"])
    assert findings == []


def test_stale_suppression_fails_the_build(tmp_path):
    write_module(
        tmp_path,
        "def now():\n"
        "    return 1  # bp-lint: disable=BP001 -- obsolete claim\n",
    )
    findings = run_report([str(tmp_path)], rules=["BP001", "BP012"])
    assert rules_of(findings) == ["BP012"]
    assert "stale suppression" in findings[0].message


def test_missing_rationale_fails_even_when_live(tmp_path):
    write_module(
        tmp_path,
        "import time\n"
        "\n"
        "def now():\n"
        "    return time.time()  # bp-lint: disable=BP001\n",
    )
    findings = run_report([str(tmp_path)], rules=["BP001", "BP012"])
    assert rules_of(findings) == ["BP012"]
    assert "no rationale" in findings[0].message


def test_unjudgeable_rules_are_not_reported_stale(tmp_path):
    # BP003 did not run, so its suppression cannot be judged stale —
    # only the missing-rationale half may fire (it has one here).
    write_module(
        tmp_path,
        "x = 1  # bp-lint: disable=BP003 -- awaiting triage\n",
    )
    findings = run_report([str(tmp_path)], rules=["BP001", "BP012"])
    assert findings == []


def test_bp012_findings_cannot_be_suppressed(tmp_path):
    write_module(
        tmp_path,
        "x = 1  # bp-lint: disable=BP012,BP001 -- trying to mute the audit\n",
    )
    findings = run_report([str(tmp_path)], rules=["BP001", "BP012"])
    assert rules_of(findings) == ["BP012"]
    assert "stale suppression" in findings[0].message
