"""Interprocedural byzantine-taint analysis over the call graph.

The intraprocedural proof rules (BP003/BP005) stop at function
boundaries, which is exactly where trust laundering happens: a handler
passes wire data to a helper, the helper installs it into replicated
state, and neither function alone looks wrong. This engine computes a
*taint summary* per function — which parameters flow to the return
value, and which parameters reach a protected sink without passing a
sanitizer — and iterates the summaries to a fixpoint across the call
graph, so taint introduced in one function is tracked through every
helper it transits.

The trust lattice is two-valued (UNTRUSTED until sanitized) with
labelled taint *tokens*:

* ``source`` — the value came out of a wire decoder
  (:data:`SOURCE_FUNCTIONS`) somewhere in the chain;
* ``param:<name>`` — the value derives from the named parameter (the
  caller substitutes its own tokens at the call site, which is what
  makes the analysis interprocedural).

Sanitization is dominance-based, matching BP003's convention: a
statement is *sanitized* when every path from function entry to it
passes a statement whose header contains a verification call —
:data:`SANITIZER_NAME_RE` names (``verify``/``is_valid``/``check``/…),
a :mod:`repro.pbft.quorums` threshold, or an in-tree function whose
name claims verification. Sinks are the places byzantine input must
never reach unsanitized: Local Log mutation, executed-state and
digest-chain folds, and vote-tally staging.

Precision notes (deliberate, documented):

* Unresolved/external call *results* propagate the union of receiver
  and argument taint (no laundering through unknown helpers), except
  verification-named calls, whose results are verdicts.
* Instance-attribute taint (``self.x = tainted``) is not tracked
  across statements; cross-statement state flows are the chaos
  suite's job.
* Ambiguous method calls (multiple in-tree definers, untyped
  receiver) get no edges — the call-graph report counts them.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    build_call_graph,
)
from repro.analysis.dataflow import FunctionCFG, header_exprs
from repro.analysis.findings import Finding
from repro.analysis.framework import ModuleContext

#: Wire decoders: their results are byzantine until sanitized.
SOURCE_FUNCTIONS = frozenset({
    "repro.core.codec.decode_wire",
    "repro.core.codec.decode_wire_bytes",
    "repro.core.codec.transcode",
})

#: A call whose name matches claims (or performs) verification; such
#: statements sanitize everything they dominate. Over-matching here
#: only *misses* findings — BP010 audits whether the names tell the
#: truth.
SANITIZER_NAME_RE = re.compile(
    r"(^|_)(verify|valid|check|is_valid|authenticate|sanitize)|valid$"
)

#: Verdict-returning verification primitives: calling one as a bare
#: statement discards the verdict (BP010). Raising checkers
#: (``QuorumProof.check``) return no value and are legitimately bare.
VERDICT_CALL_NAMES = frozenset({
    "is_valid", "verify", "check", "valid_signers",
    "verify_log_commit", "verify_send", "verify_received_payload",
})

#: Quorum threshold helpers: a dominating comparison against one is a
#: sanitizer (``len(votes) >= commit_quorum(f)``).
SANITIZER_MODULES = frozenset({"repro.pbft.quorums"})

#: Parameter names that denote wire-derived input at trust boundaries
#: (used by the BP010 laundering audit for verification-named
#: functions).
WIRE_PARAM_NAMES = frozenset({
    "sealed", "msg", "message", "certificate", "snapshot", "proof",
    "vote", "offer", "response", "payload",
})

#: Method sinks: (class simple name, method) -> description.
METHOD_SINKS: Dict[Tuple[str, str], str] = {
    ("LocalLog", "append"): "Local Log append",
    ("LocalLog", "restore"): "Local Log restore",
    ("LocalLog", "truncate_before"): "Local Log truncation",
    ("PBFTEngine", "submit"): "consensus proposal",
}

#: Instance attributes whose assignment is a state sink.
ATTR_SINKS: Dict[str, str] = {
    "_exec_chain": "execution digest-chain fold",
    "executed_entries": "executed-state mutation",
    "last_executed": "executed-watermark mutation",
    "stable_certificate": "checkpoint-certificate adoption",
    "_stable_snapshot_payload": "stable-snapshot adoption",
    "mirror_logs": "mirror-state mutation",
}

#: Instance attributes whose *subscript* assignment is a sink
#: (vote-tally staging structures).
SUBSCRIPT_SINKS: Dict[str, str] = {
    "_catch_up_values": "catch-up vote tally",
    "_catch_up_tally": "catch-up vote tally",
}

#: Builtins whose results are verdict/metadata, not data flow.
_NO_TAINT_BUILTINS = frozenset({
    "len", "isinstance", "issubclass", "bool", "type", "hasattr",
    "id", "hash", "print", "repr", "callable", "range", "enumerate",
})

SOURCE_TOKEN = "source"


def entry_wire_param(fn: FunctionInfo) -> Optional[str]:
    """The wire-message parameter of a receive-path entry point, or
    None if ``fn`` is not an entry point.

    Entry points are the dispatch targets byzantine peers reach
    directly: ``handle_*`` methods, the daemon ack path, and the
    simulator's message entry point.
    """
    name = fn.name
    if not (
        name.startswith("handle_")
        or name in ("on_ack", "on_message")
    ):
        return None
    params = fn.params
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    return params[0] if params else None


class SinkFlow:
    """One taint token reaching one sink, with the call chain."""

    __slots__ = ("token", "sink", "path", "line", "chain")

    def __init__(
        self, token: str, sink: str, path: str, line: int,
        chain: Tuple[str, ...],
    ) -> None:
        self.token = token
        self.sink = sink
        self.path = path
        self.line = line
        self.chain = chain

    def key(self) -> Tuple[str, str, str, int]:
        return (self.token, self.sink, self.path, self.line)


class Summary:
    """Per-function taint transfer function."""

    def __init__(self) -> None:
        #: Tokens that may flow to the return value unsanitized.
        self.returns: FrozenSet[str] = frozenset()
        #: Sink flows observed in (or transitively through) this
        #: function, keyed for dedup; values keep the shortest chain.
        self.flows: Dict[Tuple[str, str, str, int], SinkFlow] = {}
        #: Whether any ``return <expr>`` returns a real value.
        self.has_value_return = False

    def state(self) -> Tuple[FrozenSet[str], FrozenSet, bool]:
        return (
            self.returns,
            frozenset(self.flows.keys()),
            self.has_value_return,
        )


class TaintEngine:
    """Computes summaries to fixpoint and derives BP009/BP010."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.summaries: Dict[str, Summary] = {}
        self._cfgs: Dict[str, FunctionCFG] = {}
        self._sites: Dict[str, Dict[int, CallSite]] = {}
        for caller, sites in graph.calls.items():
            self._sites[caller] = {id(s.node): s for s in sites}

    # ------------------------------------------------------------------
    # Fixpoint driver
    # ------------------------------------------------------------------
    def run(self) -> None:
        functions = sorted(self.graph.functions)
        for qualname in functions:
            self.summaries[qualname] = Summary()
        reverse: Dict[str, Set[str]] = {}
        for caller, callees in self.graph.edges.items():
            for callee in callees:
                reverse.setdefault(callee, set()).add(caller)
        worklist: List[str] = list(functions)
        queued = set(worklist)
        rounds = 0
        budget = max(20 * len(functions), 1000)
        while worklist and rounds < budget:
            rounds += 1
            qualname = worklist.pop(0)
            queued.discard(qualname)
            fn = self.graph.functions[qualname]
            before = self.summaries[qualname].state()
            self.summaries[qualname] = self._summarize(fn)
            if self.summaries[qualname].state() != before:
                for caller in sorted(reverse.get(qualname, ())):
                    if caller not in queued and caller in self.summaries:
                        worklist.append(caller)
                        queued.add(caller)

    # ------------------------------------------------------------------
    # Per-function summary
    # ------------------------------------------------------------------
    def _cfg(self, fn: FunctionInfo) -> FunctionCFG:
        cfg = self._cfgs.get(fn.qualname)
        if cfg is None:
            cfg = FunctionCFG(fn.node)
            self._cfgs[fn.qualname] = cfg
        return cfg

    def _summarize(self, fn: FunctionInfo) -> Summary:
        summary = Summary()
        cfg = self._cfg(fn)
        stmts = list(cfg._stmts)
        taint: Dict[str, Set[str]] = {}
        params = list(fn.params) + list(fn.kwonly)
        start = 1 if params and params[0] in ("self", "cls") else 0
        for param in params[start:]:
            taint[param] = {f"param:{param}"}
        sites = self._sites.get(fn.qualname, {})
        sanitized_memo: Dict[int, bool] = {}

        def sanitized(stmt: ast.stmt) -> bool:
            memo = sanitized_memo.get(id(stmt))
            if memo is None:
                memo = cfg.dominated_by(stmt, self._is_sanitizer_stmt)
                sanitized_memo[id(stmt)] = memo
            return memo

        returns: Set[str] = set()
        for _ in range(10):
            changed = False
            for stmt in stmts:
                changed |= self._flow_stmt(
                    fn, stmt, taint, sites, summary, sanitized, returns
                )
            if not changed:
                break
        summary.returns = frozenset(returns)
        return summary

    def _flow_stmt(
        self,
        fn: FunctionInfo,
        stmt: ast.stmt,
        taint: Dict[str, Set[str]],
        sites: Dict[int, CallSite],
        summary: Summary,
        sanitized,
        returns: Set[str],
    ) -> bool:
        changed = False

        def bind(name: str, tokens: Set[str]) -> None:
            nonlocal changed
            if tokens and not tokens <= taint.get(name, set()):
                taint.setdefault(name, set()).update(tokens)
                changed = True

        def bind_target(target: ast.AST, tokens: Set[str]) -> None:
            if isinstance(target, ast.Name):
                bind(target.id, tokens)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    bind_target(elt, tokens)
            elif isinstance(target, ast.Starred):
                bind_target(target.value, tokens)
            elif isinstance(target, ast.Attribute):
                self._attr_sink(
                    fn, stmt, target, tokens, summary, sanitized
                )
            elif isinstance(target, ast.Subscript):
                self._subscript_sink(
                    fn, stmt, target, tokens, summary, sanitized
                )

        evaluate = lambda e: self._expr_tokens(e, taint, sites)  # noqa: E731

        if isinstance(stmt, ast.Assign):
            tokens = evaluate(stmt.value)
            for target in stmt.targets:
                bind_target(target, tokens)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            bind_target(stmt.target, evaluate(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            bind_target(stmt.target, evaluate(stmt.value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            bind_target(stmt.target, evaluate(stmt.iter))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    bind_target(
                        item.optional_vars, evaluate(item.context_expr)
                    )
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            if not (
                isinstance(stmt.value, ast.Constant)
                and stmt.value.value is None
            ):
                summary.has_value_return = True
            tokens = evaluate(stmt.value)
            if tokens and not sanitized(stmt):
                if not tokens <= returns:
                    returns.update(tokens)
                    changed = True
        # Sink calls & interprocedural flow propagation live in the
        # statement's executable parts (headers for compound stmts).
        for root in header_exprs(stmt):
            for node in ast.walk(root):
                if isinstance(node, ast.Call):
                    changed |= self._call_effects(
                        fn, stmt, node, taint, sites, summary, sanitized
                    )
        return changed

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _expr_tokens(
        self,
        node: Optional[ast.AST],
        taint: Dict[str, Set[str]],
        sites: Dict[int, CallSite],
    ) -> Set[str]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(taint.get(node.id, ()))
        if isinstance(node, ast.Attribute):
            return self._expr_tokens(node.value, taint, sites)
        if isinstance(node, ast.Subscript):
            return self._expr_tokens(node.value, taint, sites)
        if isinstance(node, ast.Call):
            return self._call_tokens(node, taint, sites)
        if isinstance(node, ast.BinOp):
            return self._expr_tokens(node.left, taint, sites) | (
                self._expr_tokens(node.right, taint, sites)
            )
        if isinstance(node, (ast.BoolOp, ast.Compare)):
            return set()  # verdicts, not data
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return set()
            return self._expr_tokens(node.operand, taint, sites)
        if isinstance(node, ast.IfExp):
            return self._expr_tokens(node.body, taint, sites) | (
                self._expr_tokens(node.orelse, taint, sites)
            )
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out: Set[str] = set()
            for elt in node.elts:
                out |= self._expr_tokens(elt, taint, sites)
            return out
        if isinstance(node, ast.Dict):
            out = set()
            for value in node.values:
                out |= self._expr_tokens(value, taint, sites)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comp_tokens(node, node.elt, taint, sites)
        if isinstance(node, ast.DictComp):
            return self._comp_tokens(node, node.value, taint, sites)
        if isinstance(node, ast.Starred):
            return self._expr_tokens(node.value, taint, sites)
        if isinstance(node, ast.Await):
            return self._expr_tokens(node.value, taint, sites)
        if isinstance(node, ast.NamedExpr):
            tokens = self._expr_tokens(node.value, taint, sites)
            if isinstance(node.target, ast.Name) and tokens:
                taint.setdefault(node.target.id, set()).update(tokens)
            return tokens
        if isinstance(node, ast.JoinedStr):
            out = set()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self._expr_tokens(value.value, taint, sites)
            return out
        return set()

    def _comp_tokens(
        self,
        comp: ast.AST,
        elt: ast.AST,
        taint: Dict[str, Set[str]],
        sites: Dict[int, CallSite],
    ) -> Set[str]:
        overlay = dict(taint)
        for generator in comp.generators:
            tokens = self._expr_tokens(generator.iter, overlay, sites)
            for name in _target_names(generator.target):
                overlay[name] = set(tokens)
        return self._expr_tokens(elt, overlay, sites)

    def _call_tokens(
        self,
        node: ast.Call,
        taint: Dict[str, Set[str]],
        sites: Dict[int, CallSite],
    ) -> Set[str]:
        site = sites.get(id(node))
        arg_tokens = self._arg_union(node, taint, sites)
        receiver_tokens: Set[str] = set()
        if isinstance(node.func, ast.Attribute):
            receiver_tokens = self._expr_tokens(
                node.func.value, taint, sites
            )
        name = _call_name(node)
        if site is not None and site.resolved and site.targets:
            out: Set[str] = set()
            for target in site.targets:
                if target in SOURCE_FUNCTIONS:
                    out.add(SOURCE_TOKEN)
                    continue
                if site.kind == "constructor":
                    out |= arg_tokens
                    continue
                callee_summary = self.summaries.get(target)
                callee = self.graph.functions.get(target)
                if callee_summary is None or callee is None:
                    continue
                out |= self._map_returns(
                    callee, callee_summary, node, taint, sites
                )
            return out
        # Unresolved / external: no laundering through unknown code —
        # except verification-named calls, whose results are verdicts.
        if name is not None and SANITIZER_NAME_RE.search(name):
            return set()
        if name in _NO_TAINT_BUILTINS:
            return set()
        return receiver_tokens | arg_tokens

    def _arg_union(
        self,
        node: ast.Call,
        taint: Dict[str, Set[str]],
        sites: Dict[int, CallSite],
    ) -> Set[str]:
        out: Set[str] = set()
        for arg in node.args:
            out |= self._expr_tokens(arg, taint, sites)
        for keyword in node.keywords:
            out |= self._expr_tokens(keyword.value, taint, sites)
        return out

    def _map_returns(
        self,
        callee: FunctionInfo,
        callee_summary: Summary,
        node: ast.Call,
        taint: Dict[str, Set[str]],
        sites: Dict[int, CallSite],
    ) -> Set[str]:
        out: Set[str] = set()
        binding = self._bind_args(callee, node, taint, sites)
        for token in callee_summary.returns:
            if token == SOURCE_TOKEN:
                out.add(SOURCE_TOKEN)
            elif token.startswith("param:"):
                out |= binding.get(token[len("param:"):], set())
        return out

    def _bind_args(
        self,
        callee: FunctionInfo,
        node: ast.Call,
        taint: Dict[str, Set[str]],
        sites: Dict[int, CallSite],
    ) -> Dict[str, Set[str]]:
        """callee parameter name -> caller taint tokens of the actual."""
        params = list(callee.params)
        if params and params[0] in ("self", "cls"):
            receiver: Set[str] = set()
            if isinstance(node.func, ast.Attribute):
                receiver = self._expr_tokens(node.func.value, taint, sites)
            binding = {params[0]: receiver}
            params = params[1:]
        else:
            binding = {}
        for index, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            if index < len(params):
                binding[params[index]] = self._expr_tokens(
                    arg, taint, sites
                )
        for keyword in node.keywords:
            if keyword.arg is not None:
                binding[keyword.arg] = self._expr_tokens(
                    keyword.value, taint, sites
                )
        return binding

    # ------------------------------------------------------------------
    # Sinks and call-site effects
    # ------------------------------------------------------------------
    def _call_effects(
        self,
        fn: FunctionInfo,
        stmt: ast.stmt,
        node: ast.Call,
        taint: Dict[str, Set[str]],
        sites: Dict[int, CallSite],
        summary: Summary,
        sanitized,
    ) -> bool:
        site = sites.get(id(node))
        if site is None or not site.resolved:
            return False
        changed = False
        for target in site.targets:
            callee = self.graph.functions.get(target)
            if callee is None:
                continue
            # Direct method sinks.
            cls_name = callee.cls.name if callee.cls is not None else None
            sink = METHOD_SINKS.get((cls_name, callee.name))
            if sink is not None:
                tokens = self._arg_union(node, taint, sites)
                if tokens and not sanitized(stmt):
                    for token in tokens:
                        changed |= self._add_flow(
                            summary,
                            SinkFlow(
                                token, sink, fn.path, node.lineno,
                                (fn.qualname,),
                            ),
                        )
                continue
            # Transitive sinks through the callee's summary.
            callee_summary = self.summaries.get(target)
            if callee_summary is None or not callee_summary.flows:
                continue
            binding = None
            for flow in list(callee_summary.flows.values()):
                if not flow.token.startswith("param:"):
                    continue  # source-rooted flows are callee findings
                if binding is None:
                    binding = self._bind_args(callee, node, taint, sites)
                tokens = binding.get(flow.token[len("param:"):], set())
                if tokens and not sanitized(stmt):
                    for token in tokens:
                        changed |= self._add_flow(
                            summary,
                            SinkFlow(
                                token, flow.sink, flow.path, flow.line,
                                (fn.qualname,) + flow.chain,
                            ),
                        )
        return changed

    @staticmethod
    def _add_flow(summary: Summary, flow: SinkFlow) -> bool:
        key = flow.key()
        existing = summary.flows.get(key)
        if existing is None:
            summary.flows[key] = flow
            return True
        if len(flow.chain) < len(existing.chain):
            summary.flows[key] = flow
        return False

    def _attr_sink(
        self,
        fn: FunctionInfo,
        stmt: ast.stmt,
        target: ast.Attribute,
        tokens: Set[str],
        summary: Summary,
        sanitized,
    ) -> None:
        sink = ATTR_SINKS.get(target.attr)
        if sink is None or not tokens or sanitized(stmt):
            return
        for token in tokens:
            self._add_flow(
                summary,
                SinkFlow(token, sink, fn.path, stmt.lineno, (fn.qualname,)),
            )

    def _subscript_sink(
        self,
        fn: FunctionInfo,
        stmt: ast.stmt,
        target: ast.Subscript,
        tokens: Set[str],
        summary: Summary,
        sanitized,
    ) -> None:
        base = target.value
        if not isinstance(base, ast.Attribute):
            return
        sink = SUBSCRIPT_SINKS.get(base.attr)
        if sink is None or not tokens or sanitized(stmt):
            return
        for token in tokens:
            self._add_flow(
                summary,
                SinkFlow(token, sink, fn.path, stmt.lineno, (fn.qualname,)),
            )

    # ------------------------------------------------------------------
    # Sanitizer predicate
    # ------------------------------------------------------------------
    def _is_sanitizer_stmt(self, stmt: ast.stmt) -> bool:
        for root in header_exprs(stmt):
            for node in ast.walk(root):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                if name is not None and SANITIZER_NAME_RE.search(name):
                    return True
                site = self._site_of(node)
                if site is None or not site.resolved:
                    continue
                for target in site.targets:
                    module = target.rsplit(".", 2)[0]
                    if any(
                        target.startswith(m + ".")
                        for m in SANITIZER_MODULES
                    ) or module in SANITIZER_MODULES:
                        return True
        return False

    def _site_of(self, node: ast.Call) -> Optional[CallSite]:
        for sites in self._sites.values():
            if id(node) in sites:
                return sites[id(node)]
        return None


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _target_names(target: ast.AST) -> List[str]:
    names: List[str] = []
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.append(node.id)
    return names


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
def _chain_text(chain: Sequence[str]) -> str:
    return " -> ".join(part.rsplit(".", 1)[-1] for part in chain)


def bp009_findings(engine: TaintEngine) -> List[Finding]:
    """Untrusted wire data reaching a state sink, interprocedurally."""
    best: Dict[Tuple[str, int, str], Tuple[int, Finding]] = {}

    def add(flow: SinkFlow, origin: str, chain: Tuple[str, ...]) -> None:
        key = (flow.path, flow.line, flow.sink)
        finding = Finding(
            "BP009", flow.path, flow.line, 0,
            f"{origin} reaches {flow.sink} without a dominating "
            f"sanitizer (taint path: {_chain_text(chain)}); verify "
            "signatures/quorum proofs before state is mutated",
        )
        current = best.get(key)
        if current is None or len(chain) < current[0]:
            best[key] = (len(chain), finding)

    for qualname, summary in engine.summaries.items():
        fn = engine.graph.functions[qualname]
        wire_param = entry_wire_param(fn)
        for flow in summary.flows.values():
            if flow.token == SOURCE_TOKEN:
                add(flow, "wire-decoded data", flow.chain)
            elif (
                wire_param is not None
                and flow.token == f"param:{wire_param}"
            ):
                add(
                    flow,
                    f"wire message `{wire_param}` received by "
                    f"`{fn.name}`",
                    flow.chain,
                )
    return [finding for _, finding in best.values()]


def bp010_findings(engine: TaintEngine) -> List[Finding]:
    """Trust laundering: verification names that do not verify, and
    discarded sanitizer verdicts."""
    findings: List[Finding] = []
    for qualname in sorted(engine.summaries):
        summary = engine.summaries[qualname]
        fn = engine.graph.functions[qualname]
        if SANITIZER_NAME_RE.search(fn.name):
            laundered = sorted(
                token for token in summary.returns
                if token == SOURCE_TOKEN
                or token[len("param:"):] in WIRE_PARAM_NAMES
            )
            if laundered:
                what = ", ".join(
                    "wire-decoded data" if t == SOURCE_TOKEN
                    else f"`{t[len('param:'):]}`"
                    for t in laundered
                )
                findings.append(
                    Finding(
                        "BP010", fn.path, fn.line, 0,
                        f"`{fn.name}` claims verification but returns "
                        f"{what} without a dominating sanitizer — "
                        "callers will treat its result as trusted",
                    )
                )
    # Discarded verdicts: a bare-statement call to a verdict-returning
    # verification primitive.
    for caller, sites in engine._sites.items():
        fn = engine.graph.functions.get(caller)
        if fn is None:
            continue
        for stmt in ast.walk(fn.node):
            if not isinstance(stmt, ast.Expr) or not isinstance(
                stmt.value, ast.Call
            ):
                continue
            call = stmt.value
            name = _call_name(call)
            if name not in VERDICT_CALL_NAMES:
                continue
            # Only a *resolved* callee known to return a verdict can
            # have that verdict discarded; raise-on-failure checkers
            # (and unresolved externals) are legitimately bare.
            site = sites.get(id(call))
            if site is None or not site.resolved:
                continue
            returns_value = any(
                engine.summaries[t].has_value_return
                for t in site.targets
                if t in engine.summaries
            )
            if returns_value:
                findings.append(
                    Finding(
                        "BP010", fn.path, call.lineno, call.col_offset,
                        f"verdict of `{name}` is discarded — the "
                        "sanitizer ran but nothing is gated on its "
                        "result",
                    )
                )
    return findings


def run_taint_engine(
    contexts: Sequence[ModuleContext],
) -> Tuple[CallGraph, TaintEngine]:
    """Build the call graph and run summaries to fixpoint."""
    graph = build_call_graph(contexts)
    engine = TaintEngine(graph)
    engine.run()
    return graph, engine
