"""Finding reporters: text, JSON, and SARIF for code scanning."""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Type

from repro.analysis.findings import Finding


def render_text(findings: Sequence[Finding]) -> str:
    """gcc-style ``path:line:col: RULE message`` lines plus a summary."""
    lines = [str(finding) for finding in findings]
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    if findings:
        breakdown = ", ".join(
            f"{rule}: {count}" for rule, count in sorted(by_rule.items())
        )
        lines.append("")
        lines.append(f"{len(findings)} finding(s) ({breakdown})")
    else:
        lines.append("clean: no findings")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    """Stable JSON document (for the CI artifact and tooling)."""
    document = {
        "findings": [finding.to_dict() for finding in findings],
        "count": len(findings),
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_sarif(
    findings: Sequence[Finding],
    registry: Optional[Dict[str, Type]] = None,
) -> str:
    """SARIF 2.1.0 — GitHub code-scanning annotations from lint runs."""
    rule_ids = sorted({f.rule for f in findings})
    rules = []
    for rule_id in rule_ids:
        checker = (registry or {}).get(rule_id)
        descriptor: Dict[str, object] = {"id": rule_id}
        if checker is not None:
            descriptor["shortDescription"] = {"text": checker.summary}
            if checker.rationale:
                descriptor["fullDescription"] = {"text": checker.rationale}
        rules.append(descriptor)
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": max(1, finding.line),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "bp-lint",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_rules(registry: Dict[str, Type]) -> str:
    """``--list-rules`` output: id, summary, and rationale per rule."""
    blocks: List[str] = []
    for rule in sorted(registry):
        checker = registry[rule]
        blocks.append(f"{rule}  {checker.summary}")
        if checker.rationale:
            blocks.append(f"       {checker.rationale}")
    return "\n".join(blocks)
