"""BP006 — exception discipline.

Protocol code that swallows exceptions silently converts byzantine
evidence into silence.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, ModuleContext, register


@register
class BareExceptChecker(Checker):
    """BP006 — no bare/blanket-silent exception handlers in protocol
    code."""

    rule = "BP006"
    summary = (
        "no bare `except:`; no `except Exception: pass` in protocol code"
    )
    rationale = (
        "A bare except catches KeyboardInterrupt/SystemExit and hides "
        "simulator bugs as protocol behavior. A blanket handler whose "
        "body is only `pass` converts a byzantine-triggered crash into "
        "silence — the paper's model requires misbehavior to surface "
        "as rejection, never as silent acceptance. Handlers that "
        "convert the exception into an explicit verdict (e.g. "
        "`return False`) are fine."
    )

    def visit_module(self, ctx: ModuleContext) -> List[Finding]:
        if not ctx.is_protocol:
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    Finding(
                        self.rule, ctx.path, node.lineno, node.col_offset,
                        "bare `except:` in protocol code; catch a "
                        "specific exception (or `Exception`) and turn "
                        "it into an explicit verdict",
                    )
                )
                continue
            blanket = (
                isinstance(node.type, ast.Name)
                and node.type.id in ("Exception", "BaseException")
            )
            silent = all(isinstance(stmt, ast.Pass) for stmt in node.body)
            if blanket and silent:
                findings.append(
                    Finding(
                        self.rule, ctx.path, node.lineno, node.col_offset,
                        "`except Exception: pass` silently swallows "
                        "byzantine evidence; reject, log, or re-raise",
                    )
                )
        return findings

