"""BP004 — handler purity.

No handler may mutate its incoming message. The network delivers
messages by reference in-simulation, so a handler writing
``msg.x = ...`` corrupts the sender's (and every other recipient's)
copy — the classic heisenbug of actor simulations. (That every message
kind *has* a handler, per consuming layer, is BP011's job; this module
keeps the message-kind helpers BP011 shares.)
"""

from __future__ import annotations

import ast
import re
from typing import List

from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, ModuleContext, register


def _snake_case(name: str) -> str:
    # Mirrors repro.sim.node._snake_case (kind derivation).
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def _message_kind(node: ast.ClassDef) -> str:
    """The dispatch kind: an explicit ``kind = "..."`` class attribute
    or the snake_cased class name."""
    for stmt in node.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "kind"
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            return stmt.value.value
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "kind"
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            return stmt.value.value
    return _snake_case(node.name)


def _is_message_subclass(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(
            base, "id", None
        )
        if name == "Message":
            return True
    return False


@register
class HandlerChecker(Checker):
    """BP004 — no handler mutates its incoming message."""

    rule = "BP004"
    summary = "handlers never mutate the incoming message"
    rationale = (
        "Messages are delivered by reference in the simulator, so "
        "handler-side mutation corrupts every other recipient's copy "
        "and the sender's retransmission buffer."
    )

    def visit_module(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and node.name.startswith("handle_"):
                findings.extend(self._check_mutation(ctx, node))
        return findings

    def _check_mutation(
        self, ctx: ModuleContext, func: ast.FunctionDef
    ) -> List[Finding]:
        args = [a.arg for a in func.args.args]
        if len(args) < 2:
            return []
        msg_name = args[1] if args[0] == "self" else args[0]
        findings: List[Finding] = []
        for node in ast.walk(func):
            target = None
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if self._is_msg_attr(t, msg_name):
                        target = t
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                if self._is_msg_attr(node.target, msg_name):
                    target = node.target
            elif isinstance(node, ast.Delete):
                for t in node.targets:
                    if self._is_msg_attr(t, msg_name):
                        target = t
            if target is not None:
                findings.append(
                    Finding(
                        self.rule, ctx.path, node.lineno, node.col_offset,
                        f"handler `{func.name}` mutates the incoming "
                        f"message (`{msg_name}.{target.attr}`); messages "
                        "are shared by reference — copy instead",
                    )
                )
        return findings

    @staticmethod
    def _is_msg_attr(node: ast.AST, msg_name: str) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == msg_name
        )
