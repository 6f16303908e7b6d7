"""BP003 (payload reads must be dominated by proof checks) and
BP005 (handlers that read proofs/signatures must verify them).

SBFT and RCanopus both report that geo-scale BFT systems go wrong in
the signature-checking discipline, not the happy path: a receive path
that *usually* verifies, plus one refactored branch that doesn't, is a
forgery hole. These rules machine-check the discipline.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.dataflow import FunctionCFG, header_exprs
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, ModuleContext, register

#: Calls that establish trust in a sealed transmission on the path
#: they dominate: quorum-proof validation, the built-in receive
#: verification, or the node-level ingress/vote gates built on them.
TRUST_CALLS = {
    "is_valid",
    "check",
    "valid_signers",
    "verify",
    "proof_valid",
    "_verify_reception",
    "_verify_mirror",
}


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _contains_trust_call(stmt: ast.stmt) -> bool:
    for root in header_exprs(stmt):
        for node in ast.walk(root):
            if isinstance(node, ast.Call) and _call_name(node) in TRUST_CALLS:
                return True
    return False


def _sealed_names(func: ast.AST) -> Set[str]:
    """Names bound to an (untrusted) sealed transmission in ``func``:
    parameters named/annotated as sealed, and ``x = <expr>.sealed``."""
    names: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            annotation = arg.annotation
            annotated = (
                isinstance(annotation, ast.Name)
                and annotation.id == "SealedTransmission"
                or isinstance(annotation, ast.Attribute)
                and annotation.attr == "SealedTransmission"
            )
            if arg.arg == "sealed" or annotated:
                names.add(arg.arg)
    for node in ast.walk(func):
        value: Optional[ast.AST] = None
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value, targets = node.value, [node.target]
        if value is None:
            continue
        from_sealed = (
            isinstance(value, ast.Attribute) and value.attr == "sealed"
        ) or (isinstance(value, ast.Name) and value.id in names)
        if from_sealed:
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _record_names(func: ast.AST, sealed: Set[str]) -> Set[str]:
    """Names bound to ``<sealed>.record``."""
    records: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "record"
            and isinstance(value.value, ast.Name)
            and value.value.id in sealed
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    records.add(target.id)
    return records


def _payload_reads(
    func: ast.AST, sealed: Set[str], records: Set[str]
) -> List[ast.Attribute]:
    """``<record>.message`` / ``<sealed>.record.message`` reads."""
    reads: List[ast.Attribute] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Attribute) or node.attr != "message":
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in records:
            reads.append(node)
        elif (
            isinstance(base, ast.Attribute)
            and base.attr == "record"
            and isinstance(base.value, ast.Name)
            and base.value.id in sealed
        ):
            reads.append(node)
    return reads


@register
class UncheckedProofChecker(Checker):
    """BP003 — payload access must be dominated by proof verification."""

    rule = "BP003"
    summary = (
        "sealed-transmission payload reads must be dominated by a "
        "proof/verification check"
    )
    rationale = (
        "A transmission record is only trustworthy behind its fi+1 "
        "source-unit signatures (Lemma 2). Any code path that reaches "
        "the payload without passing a verification call first acts on "
        "a potentially forged record — the exact class of bug "
        "chaos-shrinking finds weeks later. Checked with a per-function "
        "CFG dominator analysis."
    )

    def visit_module(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for func in ast.walk(ctx.tree):
            if not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            sealed = _sealed_names(func)
            if not sealed:
                continue
            records = _record_names(func, sealed)
            reads = _payload_reads(func, sealed, records)
            if not reads:
                continue
            cfg = FunctionCFG(func)
            for read in reads:
                stmt = cfg.statement_of(read)
                if stmt is None:
                    continue  # unreachable code; nothing executes it
                if cfg.dominated_by(stmt, _contains_trust_call):
                    continue
                findings.append(
                    Finding(
                        self.rule, ctx.path, read.lineno, read.col_offset,
                        "transmission payload read without a dominating "
                        "proof check (is_valid/proof_valid/...); "
                        "verify the fi+1 signatures before acting on "
                        "the record",
                    )
                )
        return findings


@register
class SignatureBeforeTrustChecker(Checker):
    """BP005 — message handlers reading proofs must verify them."""

    rule = "BP005"
    summary = (
        "handlers that read `.proof`/`.signature` must call a "
        "verification primitive"
    )
    rationale = (
        "A handler that stores or forwards an attached proof without "
        "calling verify/is_valid/check accepts byzantine input as "
        "evidence. Even when a downstream consumer re-validates, the "
        "handler is the trust boundary the paper's receive routine "
        "defines — validation belongs there."
    )

    def visit_module(self, ctx: ModuleContext) -> List[Finding]:
        findings: List[Finding] = []
        for func in ast.walk(ctx.tree):
            if not isinstance(
                func, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not func.name.startswith("handle_"):
                continue
            args = [a.arg for a in func.args.args]
            if len(args) < 2:
                continue
            msg_name = args[1] if args[0] == "self" else args[0]
            proof_read = None
            has_trust = False
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("proof", "signature", "geo_proofs")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == msg_name
                    and isinstance(node.ctx, ast.Load)
                ):
                    proof_read = proof_read or node
                if isinstance(node, ast.Call) and (
                    _call_name(node) in TRUST_CALLS
                ):
                    has_trust = True
            if proof_read is not None and not has_trust:
                findings.append(
                    Finding(
                        self.rule, ctx.path, proof_read.lineno,
                        proof_read.col_offset,
                        f"handler `{func.name}` reads "
                        f"`{msg_name}.{proof_read.attr}` but never calls "
                        "a verification primitive "
                        "(verify/is_valid/check)",
                    )
                )
        return findings
