"""BP001 (wall clocks, ambient randomness, unordered fan-out) and
BP007 (float virtual-time equality).

The whole repository is a seeded discrete-event simulation: the chaos
engine's schedule shrinking and every regression repro script assume a
run is a pure function of its seed. One ``time.time()`` or module-level
``random.random()`` inside protocol code breaks that silently — the
simulation still passes, but failures stop being replayable.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, ModuleContext, register

#: Fully-qualified callables that read ambient time/entropy.
_BANNED_CALLS = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "wall-clock read",
    "time.monotonic_ns": "wall-clock read",
    "time.perf_counter": "wall-clock read",
    "time.perf_counter_ns": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "ambient entropy",
    "uuid.uuid1": "ambient entropy",
    "uuid.uuid4": "ambient entropy",
}

#: The one acceptable use of :mod:`random`: constructing a seeded
#: generator that the simulator owns.
_ALLOWED_RANDOM = {"random.Random"}

#: Emission methods: a set-ordered loop driving any of these is
#: nondeterministic message ordering on the wire.
_EMIT_METHODS = {"send", "broadcast", "submit", "local_commit", "commit_record"}


def _import_map(tree: ast.AST) -> Dict[str, str]:
    """Local name → dotted origin, for module-level imports."""
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                mapping[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return mapping


def _dotted(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a call target to a dotted path through the import map."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.get(node.id, node.id)
    return ".".join([root] + list(reversed(parts)))


@register
class DeterminismChecker(Checker):
    """BP001 — protocol code must be a function of the simulation seed."""

    rule = "BP001"
    summary = (
        "no wall clocks, ambient entropy, or set-ordered message "
        "emission in protocol code"
    )
    rationale = (
        "The simulator, chaos shrinker, and every repro script assume a "
        "run is replayable from its seed; only the injected "
        "Simulator.rng and virtual clock are deterministic. Set "
        "iteration order depends on PYTHONHASHSEED for strings, so a "
        "set-driven send loop reorders wire traffic across runs."
    )

    def visit_module(self, ctx: ModuleContext) -> List[Finding]:
        if not ctx.is_protocol:
            return []
        imports = _import_map(ctx.tree)
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                findings.extend(self._check_call(ctx, node, imports))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                findings.extend(self._check_loop(ctx, node))
        return findings

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call, imports: Dict[str, str]
    ) -> List[Finding]:
        dotted = _dotted(node.func, imports)
        if dotted is None:
            return []
        if dotted in _BANNED_CALLS:
            return [
                Finding(
                    self.rule, ctx.path, node.lineno, node.col_offset,
                    f"{_BANNED_CALLS[dotted]} `{dotted}()` in protocol "
                    "code; use the simulator's virtual clock (`sim.now`)"
                    " / seeded rng (`sim.rng`)",
                )
            ]
        if (
            dotted.startswith("random.")
            and dotted not in _ALLOWED_RANDOM
            and dotted.count(".") == 1
        ):
            return [
                Finding(
                    self.rule, ctx.path, node.lineno, node.col_offset,
                    f"module-level `{dotted}()` draws from the shared "
                    "global generator; use the injected seeded rng "
                    "(`sim.rng`) instead",
                )
            ]
        return []

    def _check_loop(
        self, ctx: ModuleContext, node: ast.stmt
    ) -> List[Finding]:
        iterable = node.iter
        if not self._is_set_expr(iterable):
            return []
        for child in ast.walk(node):
            if child is node:
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _EMIT_METHODS
            ):
                return [
                    Finding(
                        self.rule, ctx.path, node.lineno, node.col_offset,
                        "iteration over an unordered set drives "
                        f"`{child.func.attr}(...)`; iterate a sorted or "
                        "insertion-ordered sequence so message order is "
                        "deterministic",
                    )
                ]
        return []

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"set", "frozenset"}
        return False


#: Attribute names that denote virtual-time readings.
_TIME_ATTRS = {"now"}
_TIME_SUFFIXES = ("_ms", "_time", "_deadline")


def _is_time_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _TIME_ATTRS or node.attr.endswith(_TIME_SUFFIXES)
    if isinstance(node, ast.Name):
        return node.id == "now" or node.id.endswith(_TIME_SUFFIXES)
    return False


@register
class FloatTimeChecker(Checker):
    """BP007 — no equality comparison on float virtual times."""

    rule = "BP007"
    summary = "no `==`/`!=` on virtual-time floats"
    rationale = (
        "Virtual times are floats accumulated from RTT/bandwidth "
        "arithmetic; exact equality silently turns timer coincidences "
        "into protocol behavior that a 1e-9 rounding difference flips. "
        "Compare with `<`/`>=` against windows instead."
    )

    def visit_module(self, ctx: ModuleContext) -> List[Finding]:
        if not ctx.is_protocol:
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_time_expr(left) or _is_time_expr(right):
                    # Comparing against a sentinel integer (e.g. -1 or
                    # 0 for "never set") is exact and fine.
                    other = right if _is_time_expr(left) else left
                    if isinstance(other, ast.Constant) and isinstance(
                        other.value, int
                    ):
                        continue
                    if isinstance(other, ast.UnaryOp) and isinstance(
                        getattr(other.operand, "value", None), int
                    ):
                        continue
                    findings.append(
                        Finding(
                            self.rule, ctx.path, node.lineno,
                            node.col_offset,
                            "float virtual-time equality comparison; "
                            "use ordered comparison against a window",
                        )
                    )
        return findings
