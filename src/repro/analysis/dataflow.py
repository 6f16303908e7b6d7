"""Statement-level control-flow graphs and dominators for rule authors.

The proof-discipline rules (BP003 and friends) need a *dominance*
notion: "every path from function entry to this payload access passes
through a verification check". Full dataflow is overkill for ~50-line
protocol handlers, so this module builds a conservative statement-level
CFG per function and computes classic iterative dominators over it.

Granularity: every simple statement is a node; an ``if``/``while``/
``for`` contributes a node for its test/iterable (which dominates both
branches), branches rejoin afterwards; ``try`` bodies edge into their
handlers from the try entry (any statement may raise — conservative);
``return``/``raise``/``break``/``continue`` terminate or redirect
paths. The result over-approximates reachability, which for a lint
means missed dominance is reported and spurious dominance is not
invented — checks stay sound for the "flag anything unproven" use.

New checkers get this for ~5 lines::

    cfg = FunctionCFG(func_def)
    if not cfg.dominated_by(use_stmt, lambda s: is_check(s)):
        ...flag...
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Set


def header_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """The parts of ``stmt`` that execute *before* control passes
    beyond it in the CFG.

    Dominator queries hand whole statements to the caller's predicate;
    for a compound statement only its header (``if``/``while`` test,
    ``for`` iterable, ``with`` context managers) has actually run on
    every path through it — a call nested in one branch's body must not
    vouch for the other branch. Predicates should walk these roots, not
    the raw statement.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []  # entering a try proves nothing about its body
    if isinstance(stmt, ast.Match):
        return [stmt.subject]  # guards/bodies run on some paths only
    return [stmt]


class FunctionCFG:
    """Control-flow graph over one function's statements.

    Nodes are ``ast.stmt`` objects (identity-keyed). A virtual entry
    node precedes the first statement.
    """

    ENTRY = "<entry>"

    def __init__(self, func: ast.AST) -> None:
        body = getattr(func, "body", [])
        self._succ: Dict[object, List[object]] = {self.ENTRY: []}
        self._stmts: List[ast.stmt] = []
        #: statement → the CFG node whose execution it belongs to (a
        #: statement nested in an ``if`` body maps to itself; the
        #: ``if``'s test maps to the ``if`` statement node).
        self._build_block(body, [self.ENTRY], loop_heads=[])
        self._dominators: Optional[Dict[object, Set[object]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_node(self, stmt: ast.stmt) -> None:
        if stmt not in self._succ:
            self._succ[stmt] = []
            self._stmts.append(stmt)

    def _edge(self, src: object, dst: object) -> None:
        if dst not in self._succ[src]:
            self._succ[src].append(dst)

    def _build_block(
        self,
        body: List[ast.stmt],
        preds: List[object],
        loop_heads: List[ast.stmt],
    ) -> List[object]:
        """Wire ``body`` after ``preds``; return the block's exits."""
        current = list(preds)
        for stmt in body:
            self._add_node(stmt)
            for pred in current:
                self._edge(pred, stmt)
            if isinstance(stmt, ast.If):
                then_exits = self._build_block(stmt.body, [stmt], loop_heads)
                if stmt.orelse:
                    else_exits = self._build_block(
                        stmt.orelse, [stmt], loop_heads
                    )
                else:
                    else_exits = [stmt]
                current = then_exits + else_exits
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                body_exits = self._build_block(
                    stmt.body, [stmt], loop_heads + [stmt]
                )
                for exit_node in body_exits:
                    self._edge(exit_node, stmt)
                else_exits = (
                    self._build_block(stmt.orelse, [stmt], loop_heads)
                    if stmt.orelse
                    else [stmt]
                )
                current = else_exits
            elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                body_exits = self._build_block(stmt.body, [stmt], loop_heads)
                handler_exits: List[object] = []
                for handler in stmt.handlers:
                    # Conservatively, a handler is reachable from the
                    # try entry itself (any body statement may raise).
                    handler_exits.extend(
                        self._build_block(handler.body, [stmt], loop_heads)
                    )
                else_exits = (
                    self._build_block(stmt.orelse, body_exits, loop_heads)
                    if stmt.orelse
                    else body_exits
                )
                merged = else_exits + handler_exits
                if stmt.finalbody:
                    current = self._build_block(
                        stmt.finalbody, merged or [stmt], loop_heads
                    )
                else:
                    current = merged
            elif isinstance(stmt, ast.Match):
                # The subject evaluates once (the Match node), then
                # exactly one case body runs — or none, when no pattern
                # matches and there is no irrefutable wildcard case.
                case_exits: List[object] = []
                irrefutable = False
                for case in stmt.cases:
                    case_exits.extend(
                        self._build_block(case.body, [stmt], loop_heads)
                    )
                    if self._is_wildcard(case):
                        irrefutable = True
                if not irrefutable:
                    case_exits.append(stmt)
                current = case_exits
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                current = self._build_block(stmt.body, [stmt], loop_heads)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                current = []
            elif isinstance(stmt, ast.Break):
                current = []
            elif isinstance(stmt, ast.Continue):
                if loop_heads:
                    self._edge(stmt, loop_heads[-1])
                current = []
            else:
                current = [stmt]
            if not current:
                break
        return current

    @staticmethod
    def _is_wildcard(case: "ast.match_case") -> bool:
        """A guardless ``case _:`` / ``case name:`` catches everything."""
        return (
            case.guard is None
            and isinstance(case.pattern, ast.MatchAs)
            and case.pattern.pattern is None
        )

    # ------------------------------------------------------------------
    # Dominators
    # ------------------------------------------------------------------
    def dominators(self) -> Dict[object, Set[object]]:
        """node → set of nodes dominating it (entry dominates all)."""
        if self._dominators is not None:
            return self._dominators
        nodes = [self.ENTRY] + self._stmts
        preds: Dict[object, List[object]] = {node: [] for node in nodes}
        for src, dsts in self._succ.items():
            for dst in dsts:
                preds[dst].append(src)
        dom: Dict[object, Set[object]] = {
            node: set(nodes) for node in nodes
        }
        dom[self.ENTRY] = {self.ENTRY}
        changed = True
        while changed:
            changed = False
            for node in nodes:
                if node is self.ENTRY:
                    continue
                pred_doms = [dom[p] for p in preds[node]]
                new = (
                    set.intersection(*pred_doms) if pred_doms else set()
                )
                new.add(node)
                if new != dom[node]:
                    dom[node] = new
                    changed = True
        self._dominators = dom
        return dom

    def statement_of(self, node: ast.AST) -> Optional[ast.stmt]:
        """The CFG statement whose execution contains ``node``.

        Expressions nested inside a compound statement's *test* (or a
        ``for``'s iterable) belong to the compound node itself; nested
        body statements are their own nodes. Returns None for nodes
        outside this function's body.
        """
        best: Optional[ast.stmt] = None
        target_range = (
            getattr(node, "lineno", None),
            getattr(node, "col_offset", None),
        )
        if target_range[0] is None:
            return None
        for stmt in self._stmts:
            if self._contains(stmt, node):
                best = stmt  # innermost match wins: keep scanning
        return best

    @staticmethod
    def _contains(stmt: ast.stmt, node: ast.AST) -> bool:
        for child in ast.walk(stmt):
            if child is node:
                return True
        return False

    def dominated_by(
        self,
        stmt: ast.stmt,
        predicate: Callable[[ast.stmt], bool],
    ) -> bool:
        """True if some dominator of ``stmt`` (itself included)
        satisfies ``predicate``."""
        dom = self.dominators()
        for node in dom.get(stmt, set()):
            if node is self.ENTRY:
                continue
            if predicate(node):
                return True
        return False
