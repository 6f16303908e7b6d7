"""The checker framework: registry, module contexts, suppressions.

A checker is a class with a ``rule`` id; the framework instantiates the
registered checkers once per run and feeds every analyzed module to
:meth:`Checker.visit_module`; whole-program rules instead read the
call graph and taint engine in :meth:`Checker.analyze_project`.

Suppressions use ``# bp-lint: disable=RULE[,RULE...] -- rationale``
comments:

* trailing after code, the listed rules are suppressed on that line;
* on a line of its own, the listed rules are suppressed for the whole
  file (conventionally placed at the top);
* ``disable=all`` suppresses every rule;
* everything after ``--`` is the rationale — required by the BP012
  audit, which also fails suppressions that no longer match any
  finding of a rule that actually ran.

Suppression is applied *after* checkers run, so a checker never needs
to know about it. BP012's own findings are exempt from suppression:
the audit of the suppression mechanism cannot be silenced by it.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro.analysis.findings import Finding, PARSE_ERROR_RULE

#: Sub-packages whose code must be deterministic / protocol-clean.
PROTOCOL_PACKAGES = (
    "repro.sim",
    "repro.pbft",
    "repro.core",
    "repro.paxos",
    "repro.baselines",
)

_SUPPRESS_RE = re.compile(
    r"#\s*bp-lint:\s*disable=([A-Za-z0-9_,\s]+)(?:--\s*(.+?)\s*$)?"
)

#: Rule id of the stale-suppression audit (emitted by :func:`run_report`
#: itself rather than a per-module checker — it needs the post-filter
#: "which suppressions matched something" state).
SUPPRESSION_AUDIT_RULE = "BP012"


class ModuleContext:
    """Everything a checker may want to know about one source file.

    Attributes:
        path: The file path as given to the analyzer.
        module: Best-effort dotted module name (``repro.pbft.replica``),
            derived from the path; overridable for fixture tests.
        tree: The parsed :mod:`ast` tree.
        source: Raw source text.
    """

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.AST,
        module: Optional[str] = None,
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module if module is not None else _module_of(path)

    @property
    def is_protocol(self) -> bool:
        """Whether this module belongs to a protocol package (the scope
        of the determinism rules)."""
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in PROTOCOL_PACKAGES
        )


def _module_of(path: str) -> str:
    """Dotted module name from a file path (anchored at ``repro``)."""
    parts = list(Path(path).with_suffix("").parts)
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or ["__init__"]
    return ".".join(parts)


class Checker:
    """Base class for one lint rule.

    Subclasses set :attr:`rule`, :attr:`summary`, and :attr:`rationale`
    (the protocol property the rule protects — surfaced by
    ``--list-rules`` and the docs) and override :meth:`visit_module` or,
    for interprocedural rules, :meth:`analyze_project`. Checkers are
    instantiated fresh for every run, so instance state is per-run
    state.
    """

    rule: str = "BP???"
    summary: str = ""
    rationale: str = ""
    #: Interprocedural rules need the call graph / taint engine; they
    #: only run when :func:`run_report` is invoked with
    #: ``interproc=True`` (or the rule is selected explicitly).
    requires_interproc: bool = False

    def visit_module(self, ctx: ModuleContext) -> List[Finding]:
        """Analyze one module; return its findings."""
        return []

    def analyze_project(self, project: "Project") -> List[Finding]:
        """Whole-program analysis over the call graph / taint engine.

        Only called when the interprocedural pass ran; ``project``
        carries the parsed contexts, the :class:`~repro.analysis.
        callgraph.CallGraph`, and the converged ``TaintEngine``.
        """
        return []


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if cls.rule in _REGISTRY:
        raise ValueError(f"duplicate checker for rule {cls.rule}")
    _REGISTRY[cls.rule] = cls
    return cls


def registered_checkers() -> Dict[str, Type[Checker]]:
    """rule id → checker class, for every registered rule."""
    _ensure_rules_loaded()
    return dict(_REGISTRY)


def _ensure_rules_loaded() -> None:
    # Importing the rules package registers every built-in checker;
    # deferred so framework import never cycles with rule modules.
    from repro.analysis import rules  # noqa: F401


class SuppressionEntry:
    """One ``# bp-lint: disable=...`` comment, with audit state."""

    __slots__ = ("line", "rules", "rationale", "file_level", "used")

    def __init__(
        self,
        line: int,
        rules: Set[str],
        rationale: Optional[str],
        file_level: bool,
    ) -> None:
        self.line = line
        self.rules = rules
        self.rationale = rationale
        self.file_level = file_level
        #: Set by :meth:`Suppressions.allows` when the entry actually
        #: silences a finding — the BP012 staleness signal.
        self.used = False


class Suppressions:
    """Parsed ``# bp-lint: disable=...`` comments for one file."""

    def __init__(self, source: str) -> None:
        self.entries: List[SuppressionEntry] = []
        self._parse(source)

    def _parse(self, source: str) -> None:
        code_lines: Set[int] = set()
        comments: List[Tuple[int, str]] = []
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
            elif token.type not in (
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENCODING,
                tokenize.ENDMARKER,
            ):
                for line in range(token.start[0], token.end[0] + 1):
                    code_lines.add(line)
        for line, comment in comments:
            match = _SUPPRESS_RE.search(comment)
            if match is None:
                continue
            rules = {
                rule.strip().upper()
                for rule in match.group(1).split(",")
                if rule.strip()
            }
            if not rules:
                continue
            self.entries.append(
                SuppressionEntry(
                    line, rules, match.group(2), line not in code_lines
                )
            )

    def allows(self, finding: Finding) -> bool:
        """Whether ``finding`` survives this file's suppressions.

        Matching entries are marked *used*, which is what the BP012
        staleness audit keys on. BP012 findings themselves are never
        suppressible — the audit of the mechanism must not be silenced
        by the mechanism.
        """
        if finding.rule == SUPPRESSION_AUDIT_RULE:
            return True
        allowed = True
        for entry in self.entries:
            if not entry.file_level and entry.line != finding.line:
                continue
            if "ALL" in entry.rules or finding.rule in entry.rules:
                entry.used = True
                allowed = False
        return allowed

    def audit(
        self,
        path: str,
        active_rules: Set[str],
        all_rules: Set[str],
    ) -> List[Finding]:
        """BP012: stale or rationale-less suppressions in this file.

        A suppression is *stale* when every rule it names actually ran
        this pass and none of them produced a finding it silenced; an
        entry naming rules outside ``active_rules`` is not judgeable
        (the evidence wasn't gathered) and is left alone. ``disable=
        all`` entries are judgeable only on a full-rule run.
        """
        findings: List[Finding] = []
        for entry in self.entries:
            listed = ", ".join(sorted(entry.rules))
            if entry.rationale is None:
                findings.append(
                    Finding(
                        SUPPRESSION_AUDIT_RULE, path, entry.line, 0,
                        f"suppression of {listed} carries no rationale; "
                        "append ` -- <why this is safe>` to the "
                        "bp-lint comment",
                    )
                )
            if "ALL" in entry.rules:
                judgeable = active_rules >= all_rules
            else:
                judgeable = entry.rules <= active_rules
            if judgeable and not entry.used:
                findings.append(
                    Finding(
                        SUPPRESSION_AUDIT_RULE, path, entry.line, 0,
                        f"stale suppression: {listed} produced no "
                        "finding here this run — delete the bp-lint "
                        "comment or narrow it",
                    )
                )
        return findings


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files,
    each listed once however many of ``paths`` cover it."""
    found: Dict[Path, str] = {}
    for raw in paths:
        path = Path(raw)
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            found.setdefault(file.resolve(), str(file))
    return sorted(found.values())


def analyze_source(
    source: str,
    path: str,
    checkers: Sequence[Checker],
    module: Optional[str] = None,
) -> List[Finding]:
    """Run per-module checkers over one source text.

    Parse failures come back as a single :data:`PARSE_ERROR_RULE`
    finding; suppressions are already applied to the result.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule=PARSE_ERROR_RULE,
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = ModuleContext(path, source, tree, module=module)
    suppressions = Suppressions(source)
    findings: List[Finding] = []
    for checker in checkers:
        findings.extend(checker.visit_module(ctx))
    return [f for f in findings if suppressions.allows(f)]


class Project:
    """What the interprocedural pass hands to ``analyze_project``."""

    def __init__(self, contexts, graph, engine) -> None:
        #: Every parsed :class:`ModuleContext` in the run.
        self.contexts = contexts
        #: The resolved :class:`~repro.analysis.callgraph.CallGraph`.
        self.graph = graph
        #: The converged :class:`~repro.analysis.interproc.TaintEngine`.
        self.engine = engine


class Report:
    """Result of one analysis run: findings plus interproc artifacts."""

    def __init__(
        self,
        findings: List[Finding],
        graph=None,
        interproc: bool = False,
    ) -> None:
        self.findings = findings
        self.graph = graph
        self.interproc = interproc


def run_report(
    paths: Sequence[str],
    rules: Optional[Iterable[str]] = None,
    interproc: bool = False,
) -> Report:
    """Analyze every Python file under ``paths``; return a
    :class:`Report` with findings sorted by location.

    With ``rules=None`` the run covers every registered rule except
    the interprocedural ones, which join when ``interproc=True``.
    Explicitly selecting an interprocedural rule enables the pass.

    Note: file-level suppressions silence a rule's *per-module*
    findings in that file, and interprocedural findings
    (``analyze_project``) whose location falls in that file.
    """
    registry = registered_checkers()
    if rules is not None:
        selected = set(rules)
        unknown = selected - set(registry)
        if unknown:
            raise ValueError(
                f"unknown rule(s): {', '.join(sorted(unknown))}"
            )
        if any(registry[rule].requires_interproc for rule in selected):
            interproc = True
    else:
        selected = {
            rule
            for rule, cls in registry.items()
            if interproc or not cls.requires_interproc
        }
    checkers = [registry[rule]() for rule in sorted(selected)]
    findings: List[Finding] = []
    contexts: List[ModuleContext] = []
    suppressions_by_path: Dict[str, Suppressions] = {}
    for path in iter_python_files(paths):
        try:
            source = Path(path).read_text()
        except OSError as exc:
            findings.append(
                Finding(PARSE_ERROR_RULE, path, 1, 0, f"unreadable: {exc}")
            )
            continue
        suppressions_by_path[path] = Suppressions(source)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        ctx = ModuleContext(path, source, tree)
        contexts.append(ctx)
        for checker in checkers:
            findings.extend(checker.visit_module(ctx))
    graph = None
    if interproc:
        from repro.analysis.interproc import run_taint_engine

        graph, engine = run_taint_engine(contexts)
        project = Project(contexts, graph, engine)
        for checker in checkers:
            findings.extend(checker.analyze_project(project))
    kept: List[Finding] = []
    for finding in findings:
        suppressions = suppressions_by_path.get(finding.path)
        if suppressions is None or suppressions.allows(finding):
            kept.append(finding)
    if SUPPRESSION_AUDIT_RULE in selected:
        all_rules = set(registry)
        for path in sorted(suppressions_by_path):
            kept.extend(
                suppressions_by_path[path].audit(path, selected, all_rules)
            )
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return Report(kept, graph=graph, interproc=interproc)

