"""A conservative, module-qualified call graph over the analyzed tree.

The interprocedural rules (BP009-BP011) need to know *who calls whom*
across module boundaries. Full Python call resolution is undecidable;
this builder resolves the cases that actually occur in protocol code
and keeps an explicit report of everything it could not resolve, so the
unresolved fraction is a tracked number (tests assert a budget) instead
of a silent soundness hole.

Resolution strategy, in order:

* ``f(...)`` — module-level function in the same module, an imported
  symbol (``from repro.x import f``), or a class constructor.
* ``self.m(...)`` — attribute lookup through the enclosing class's
  AST-level MRO (in-tree bases only).
* ``mod.f(...)`` — through an ``import repro.x [as mod]`` alias.
* ``obj.m(...)`` with a *typed* receiver — parameter annotations,
  ``x = ClassName(...)`` locals, and ``self.attr`` instance attributes
  assigned in ``__init__`` give receivers classes; the method resolves
  through that class's MRO.
* ``obj.m(...)`` with an untyped receiver — if exactly one in-tree
  class defines ``m`` *and* ``m`` is not also a builtin container
  method, the call resolves there ("unique-method"); if several
  classes define it the site is recorded as *ambiguous* (no edges —
  spraying edges at every same-named method would drown the taint
  rules in false paths).

Calls to Python builtins, stdlib modules, and builtin-container
methods are classified *external* and excluded from the unresolved
budget: they can neither be analyzed nor fixed here.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import ModuleContext

#: Method names owned by builtin containers/strings; an untyped
#: receiver calling one of these is assumed external even when an
#: in-tree class happens to define the same name (list.append vs
#: LocalLog.append) — a typed receiver is required to claim those.
BUILTIN_METHOD_NAMES = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "index",
    "count", "sort", "reverse", "copy", "get", "keys", "values",
    "items", "setdefault", "update", "popitem", "add", "discard",
    "union", "intersection", "difference", "join", "split", "rsplit",
    "strip", "lstrip", "rstrip", "startswith", "endswith", "format",
    "replace", "encode", "decode", "lower", "upper", "title",
    "splitlines", "find", "rfind", "ljust", "rjust", "zfill",
    "readline", "readlines", "read", "write", "close", "flush",
})

#: Builtin annotations/constructor names treated as container types.
BUILTIN_TYPE_NAMES = frozenset({
    "list", "dict", "set", "tuple", "str", "int", "float", "bool",
    "bytes", "frozenset", "List", "Dict", "Set", "Tuple", "Optional",
    "Sequence", "Iterable", "Mapping", "FrozenSet", "DefaultDict",
    "Deque", "deque", "defaultdict", "Counter", "OrderedDict",
})

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Call-site classification kinds.
RESOLVED_KINDS = ("direct", "self", "module", "typed", "unique",
                  "constructor", "nested", "bound")
EXTERNAL_KIND = "external"
AMBIGUOUS_KIND = "ambiguous"
UNRESOLVED_KIND = "unresolved"
#: A call through a function-valued local/parameter (higher-order
#: flow). Tracked as its own category: it is not a resolution
#: *failure* — the receiver is data, decided at runtime — but it is
#: reported, never silently dropped.
DYNAMIC_KIND = "dynamic"


class FunctionInfo:
    """One function or method definition in the analyzed tree."""

    def __init__(
        self,
        qualname: str,
        module: str,
        path: str,
        node: ast.AST,
        cls: Optional["ClassInfo"] = None,
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.path = path
        self.node = node
        self.cls = cls
        self.name = node.name
        args = node.args
        self.params: List[str] = [
            a.arg
            for a in list(args.posonlyargs) + list(args.args)
        ]
        self.kwonly: List[str] = [a.arg for a in args.kwonlyargs]
        #: Directly nested ``def``s: local name -> FunctionInfo.
        self.nested: Dict[str, "FunctionInfo"] = {}
        #: Return annotation as (simple type name, element type name).
        self.returns_type, self.returns_elem = _annotation_info(
            getattr(node, "returns", None)
        )

    @property
    def line(self) -> int:
        return self.node.lineno


class ClassInfo:
    """One class definition: bases, methods, and inferred attr types."""

    def __init__(
        self, qualname: str, module: str, path: str, node: ast.ClassDef
    ) -> None:
        self.qualname = qualname
        self.module = module
        self.path = path
        self.node = node
        self.name = node.name
        #: Raw base expressions as dotted strings ("Node", "pbft.X").
        self.base_names: List[str] = [
            name for name in (_dotted(b) for b in node.bases)
            if name is not None
        ]
        #: Resolved in-tree base classes (filled by the graph builder).
        self.bases: List[ClassInfo] = []
        #: Whether every base resolved in-tree down to a root class.
        self.chain_resolved = True
        self.methods: Dict[str, FunctionInfo] = {}
        #: instance attribute name -> class simple name or "<builtin>".
        self.attr_types: Dict[str, str] = {}
        #: container attribute name -> element class simple name.
        self.attr_elems: Dict[str, str] = {}

    def mro(self) -> List["ClassInfo"]:
        """AST-level linearization: self, then bases depth-first
        (first occurrence wins; good enough for single inheritance
        plus the occasional mixin)."""
        seen: Set[str] = set()
        order: List[ClassInfo] = []
        stack: List[ClassInfo] = [self]
        while stack:
            cls = stack.pop(0)
            if cls.qualname in seen:
                continue
            seen.add(cls.qualname)
            order.append(cls)
            stack = cls.bases + stack
        return order

    def lookup(self, method: str) -> Optional[FunctionInfo]:
        """Class-attribute lookup through the AST-level MRO."""
        for cls in self.mro():
            if method in cls.methods:
                return cls.methods[method]
        return None

    def attr_type(self, attr: str) -> Optional[str]:
        for cls in self.mro():
            if attr in cls.attr_types:
                return cls.attr_types[attr]
        return None

    def attr_elem(self, attr: str) -> Optional[str]:
        for cls in self.mro():
            if attr in cls.attr_elems:
                return cls.attr_elems[attr]
        return None


class CallSite:
    """One call expression, with its resolution verdict."""

    __slots__ = ("caller", "node", "name", "kind", "targets", "path")

    def __init__(
        self,
        caller: str,
        path: str,
        node: ast.Call,
        name: str,
        kind: str,
        targets: Tuple[str, ...],
    ) -> None:
        self.caller = caller
        self.path = path
        self.node = node
        self.name = name
        self.kind = kind
        self.targets = targets

    @property
    def resolved(self) -> bool:
        return self.kind in RESOLVED_KINDS

    def to_dict(self) -> Dict[str, object]:
        return {
            "caller": self.caller,
            "path": self.path,
            "line": self.node.lineno,
            "name": self.name,
            "kind": self.kind,
            "targets": list(self.targets),
        }


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` attribute/name chains as a dotted string."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class name out of an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[", 1)[0].rsplit(".", 1)[-1]
    if isinstance(node, ast.Subscript):
        # Optional[X] / List[X]: the container decides builtin-ness.
        return _annotation_name(node.value)
    name = _dotted(node)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]


#: Builtins that return a container over their first argument's
#: elements, so the element type survives ``sorted(...)`` and friends.
_ELEMENT_PRESERVING_BUILTINS = frozenset({
    "sorted", "list", "tuple", "set", "frozenset", "reversed", "iter",
})

#: Generic containers whose single subscript parameter types the
#: *elements* (what ``for x in c`` binds).
_ELEMENT_CONTAINERS = frozenset({
    "List", "Set", "FrozenSet", "Sequence", "Iterable", "Iterator",
    "Deque", "Tuple", "list", "set", "frozenset", "tuple", "deque",
})


def _annotation_info(
    node: Optional[ast.AST],
) -> Tuple[Optional[str], Optional[str]]:
    """(type simple name or ``<builtin>``, element type simple name).

    ``Optional[X]`` is transparent (the value *is* an X when used);
    ``List[X]`` types as ``<builtin>`` with element ``X``, so for-loop
    targets and ``[...]`` indexing get a class.
    """
    if node is None:
        return None, None
    if isinstance(node, ast.Subscript):
        container = _annotation_name(node.value)
        if container == "Optional":
            return _annotation_info(node.slice)
        elem: Optional[str] = None
        if container in _ELEMENT_CONTAINERS:
            slice_node = node.slice
            if isinstance(slice_node, ast.Tuple) and slice_node.elts:
                slice_node = slice_node.elts[0]
            elem = _annotation_name(slice_node)
            if elem in BUILTIN_TYPE_NAMES:
                elem = None
        if container is None:
            return None, None
        return (
            "<builtin>" if container in BUILTIN_TYPE_NAMES else container,
            elem,
        )
    name = _annotation_name(node)
    if name is None:
        return None, None
    return ("<builtin>" if name in BUILTIN_TYPE_NAMES else name), None


class ModuleIndex:
    """Per-module symbol tables: imports, functions, classes."""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.module = ctx.module
        #: local alias -> imported dotted module name.
        self.module_aliases: Dict[str, str] = {}
        #: local alias -> (source module, symbol name).
        self.symbol_imports: Dict[str, Tuple[str, str]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Every nested ``def`` in the module (registered in the graph
        #: so the taint engine can summarize them too).
        self.nested_functions: List[FunctionInfo] = []
        #: module-level variable -> class simple name, for singleton
        #: instances (``DISABLED = Observability(enabled=False)``).
        self.var_types: Dict[str, str] = {}
        self._collect()

    def _collect(self) -> None:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.module_aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        self.module_aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports are not used in-tree
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.symbol_imports[local] = (node.module, alias.name)
        # Module-level instance vars first: classes above the
        # assignment still see them during attr typing.
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                inferred = _constructed_type(stmt.value)
                if (
                    isinstance(target, ast.Name)
                    and inferred is not None
                    and inferred != "<builtin>"
                ):
                    self.var_types[target.id] = inferred
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name, _elem = _annotation_info(stmt.annotation)
                if name is not None and name != "<builtin>":
                    self.var_types[stmt.target.id] = name
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    f"{self.module}.{stmt.name}",
                    self.module, self.ctx.path, stmt,
                )
                self.functions[stmt.name] = info
                self._collect_nested(info)
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class(stmt)

    def _collect_nested(self, parent: FunctionInfo) -> None:
        """Register ``def``s nested inside ``parent`` (any depth; they
        resolve for calls lexically inside ``parent``)."""
        for node in ast.walk(parent.node):
            if node is parent.node or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            info = FunctionInfo(
                f"{parent.qualname}.<locals>.{node.name}",
                self.module, self.ctx.path, node, cls=parent.cls,
            )
            parent.nested[node.name] = info
            self.nested_functions.append(info)

    def _collect_class(self, node: ast.ClassDef) -> None:
        cls = ClassInfo(
            f"{self.module}.{node.name}", self.module, self.ctx.path, node
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    f"{cls.qualname}.{stmt.name}",
                    self.module, self.ctx.path, stmt, cls=cls,
                )
                cls.methods[stmt.name] = info
                self._collect_nested(info)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                name, elem = _annotation_info(stmt.annotation)
                if name is not None:
                    cls.attr_types[stmt.target.id] = name
                if elem is not None:
                    cls.attr_elems[stmt.target.id] = elem
        for method in cls.methods.values():
            self._collect_attr_types(cls, method.node)
        self.classes[node.name] = cls

    def _collect_attr_types(self, cls: ClassInfo, func: ast.AST) -> None:
        """``self.x = ClassName(...)`` / ``self.x: T`` / ``self.x = p``
        (annotated parameter) in any method."""
        args = getattr(func, "args", None)
        param_ann: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
        if args is not None:
            for arg in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            ):
                param_ann[arg.arg] = _annotation_info(arg.annotation)
        for node in ast.walk(func):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                name, elem = _annotation_info(node.annotation)
                if (
                    name is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr not in cls.attr_types
                ):
                    cls.attr_types[target.attr] = name
                    if elem is not None:
                        cls.attr_elems[target.attr] = elem
                    continue
            if (
                target is None
                or not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
                or target.attr in cls.attr_types
            ):
                continue
            for candidate in self._value_candidates(value):
                if (
                    isinstance(candidate, ast.Name)
                    and candidate.id in param_ann
                ):
                    name, elem = param_ann[candidate.id]
                    if name is not None:
                        cls.attr_types[target.attr] = name
                        if elem is not None:
                            cls.attr_elems[target.attr] = elem
                        break
                    continue
                if (
                    isinstance(candidate, ast.Name)
                    and candidate.id in self.var_types
                ):
                    cls.attr_types[target.attr] = (
                        self.var_types[candidate.id]
                    )
                    break
                inferred = _constructed_type(candidate)
                if inferred is not None:
                    cls.attr_types[target.attr] = inferred
                    break

    @staticmethod
    def _value_candidates(value: Optional[ast.AST]) -> List[ast.AST]:
        """The expressions an assigned value may evaluate to —
        ``a if c else b`` and ``a or b`` contribute both branches
        (``obs if obs is not None else DISABLED``)."""
        if isinstance(value, ast.IfExp):
            return [value.body, value.orelse]
        if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
            return list(value.values)
        return [value] if value is not None else []


def _constructed_type(value: Optional[ast.AST]) -> Optional[str]:
    """Type name for ``ClassName(...)`` calls and builtin literals."""
    if value is None:
        return None
    if isinstance(value, (ast.List, ast.ListComp)):
        return "<builtin>"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "<builtin>"
    if isinstance(value, (ast.Set, ast.SetComp, ast.Tuple)):
        return "<builtin>"
    if isinstance(value, ast.Constant):
        return "<builtin>"
    if isinstance(value, ast.Call):
        name = _dotted(value.func)
        if name is None:
            return None
        simple = name.rsplit(".", 1)[-1]
        if simple in BUILTIN_TYPE_NAMES:
            return "<builtin>"
        if simple and simple[0].isupper():
            return simple
    return None


class CallGraph:
    """The assembled graph plus the honesty report."""

    def __init__(self) -> None:
        #: qualname -> FunctionInfo, every def in the tree.
        self.functions: Dict[str, FunctionInfo] = {}
        #: qualname -> ClassInfo.
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname -> its call sites (resolved or not).
        self.calls: Dict[str, List[CallSite]] = {}
        #: caller qualname -> callee qualnames.
        self.edges: Dict[str, Set[str]] = {}
        #: class qualnames instantiated anywhere in the tree.
        self.instantiated: Set[str] = set()
        self.modules: Dict[str, ModuleIndex] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def sites(self) -> Iterable[CallSite]:
        for sites in self.calls.values():
            yield from sites

    def unresolved_sites(self) -> List[CallSite]:
        return [
            s for s in self.sites()
            if s.kind in (UNRESOLVED_KIND, AMBIGUOUS_KIND)
        ]

    def dynamic_sites(self) -> List[CallSite]:
        return [s for s in self.sites() if s.kind == DYNAMIC_KIND]

    def stats(self) -> Dict[str, object]:
        kinds: Dict[str, int] = {}
        for site in self.sites():
            kinds[site.kind] = kinds.get(site.kind, 0) + 1
        external = kinds.get(EXTERNAL_KIND, 0)
        total = sum(kinds.values())
        internal = total - external
        unresolved = (
            kinds.get(UNRESOLVED_KIND, 0) + kinds.get(AMBIGUOUS_KIND, 0)
        )
        return {
            "functions": len(self.functions),
            "classes": len(self.classes),
            "call_sites": total,
            "internal_sites": internal,
            "external_sites": external,
            "unresolved_sites": unresolved,
            "unresolved_fraction": (
                round(unresolved / internal, 4) if internal else 0.0
            ),
            "by_kind": dict(sorted(kinds.items())),
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON document for ``--callgraph-out``."""
        return {
            "stats": self.stats(),
            "edges": {
                caller: sorted(callees)
                for caller, callees in sorted(self.edges.items())
                if callees
            },
            "unresolved": [
                site.to_dict() for site in self.unresolved_sites()
            ],
            "dynamic": [
                site.to_dict() for site in self.dynamic_sites()
            ],
        }


def build_call_graph(contexts: Sequence[ModuleContext]) -> CallGraph:
    """Index every module, resolve bases, then resolve call sites."""
    graph = CallGraph()
    for ctx in contexts:
        index = ModuleIndex(ctx)
        graph.modules[ctx.module] = index
        for info in index.functions.values():
            graph.functions[info.qualname] = info
        for info in index.nested_functions:
            graph.functions[info.qualname] = info
        for cls in index.classes.values():
            graph.classes[cls.qualname] = cls
            for method in cls.methods.values():
                graph.functions[method.qualname] = method
    _resolve_bases(graph)
    _enrich_attr_types(graph)
    #: method name -> classes defining it (for unique-method lookup).
    definers: Dict[str, List[ClassInfo]] = {}
    for cls in graph.classes.values():
        for name in cls.methods:
            definers.setdefault(name, []).append(cls)
    for index in graph.modules.values():
        _Resolver(graph, index, definers).run()
    return graph


def _resolve_bases(graph: CallGraph) -> None:
    for cls in graph.classes.values():
        index = graph.modules.get(cls.module)
        for base_name in cls.base_names:
            resolved = _resolve_class_name(graph, index, base_name)
            if resolved is not None:
                cls.bases.append(resolved)
            elif base_name.rsplit(".", 1)[-1] not in (
                "object", "Protocol", "ABC", "Enum", "Exception",
                "NamedTuple",
            ):
                cls.chain_resolved = False
    # A class whose base chain is broken anywhere is itself broken.
    changed = True
    while changed:
        changed = False
        for cls in graph.classes.values():
            if cls.chain_resolved and any(
                not base.chain_resolved for base in cls.bases
            ):
                cls.chain_resolved = False
                changed = True


def _enrich_attr_types(graph: CallGraph) -> None:
    """Second attr-typing pass with whole-graph visibility: ``self.x``
    assigned from an *imported* singleton instance (``self.obs = obs
    if obs is not None else DISABLED``) gets the singleton's class."""
    for index in graph.modules.values():
        for cls in index.classes.values():
            for method in cls.methods.values():
                for node in ast.walk(method.node):
                    if not (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                    ):
                        continue
                    target = node.targets[0]
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr not in cls.attr_types
                    ):
                        continue
                    for cand in ModuleIndex._value_candidates(node.value):
                        if not (
                            isinstance(cand, ast.Name)
                            and cand.id in index.symbol_imports
                        ):
                            continue
                        module, symbol = index.symbol_imports[cand.id]
                        kind, obj = _resolve_symbol(graph, module, symbol)
                        if kind == "var":
                            cls.attr_types[target.attr] = obj
                            break


def _resolve_class_name(
    graph: CallGraph, index: Optional[ModuleIndex], name: str
) -> Optional[ClassInfo]:
    """A (possibly dotted) class reference in ``index``'s namespace."""
    if index is None:
        return None
    head, _, rest = name.partition(".")
    if not rest:
        if head in index.classes:
            return index.classes[head]
        if head in index.symbol_imports:
            src_module, symbol = index.symbol_imports[head]
            kind, obj = _resolve_symbol(graph, src_module, symbol)
            if kind == "cls":
                return obj
        return None
    # "mod.Class" through a module alias.
    if head in index.module_aliases:
        src = graph.modules.get(index.module_aliases[head])
        if src is not None and rest in src.classes:
            return src.classes[rest]
    return None


def _bound_names(func: ast.AST) -> Set[str]:
    """Names the function's scope binds: parameters, assignment
    targets, and nested ``def``/``class`` statements. Over-collection
    (a name bound only in a deeper nested scope) is harmless — it only
    withholds a closure type we were never obliged to provide."""
    bound: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        for arg in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
        ):
            bound.add(arg.arg)
        if args.vararg is not None:
            bound.add(args.vararg.arg)
        if args.kwarg is not None:
            bound.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            if node is not func:
                bound.add(node.name)
    return bound


class _Resolver:
    """Resolves every call site in one module."""

    def __init__(
        self,
        graph: CallGraph,
        index: ModuleIndex,
        definers: Dict[str, List[ClassInfo]],
    ) -> None:
        self.graph = graph
        self.index = index
        self.definers = definers

    def run(self) -> None:
        module_caller = f"{self.index.module}.<module>"
        consumed: Set[int] = set()
        infos = [
            f for f in self.graph.functions.values()
            if f.module == self.index.module
        ]
        # Environments are built outermost-first so a nested ``def``
        # inherits the types of enclosing locals it closes over — a
        # closure reads exactly the names it does not itself bind
        # (Python scoping: an unqualified assignment makes a name
        # local, so bound names never take the enclosing type).
        envs: Dict[str, _Env] = {}
        for info in sorted(
            infos,
            key=lambda f: (f.qualname.count(".<locals>."), f.line),
        ):
            closure = None
            if ".<locals>." in info.qualname:
                closure = envs.get(
                    info.qualname.rsplit(".<locals>.", 1)[0]
                )
            envs[info.qualname] = self._local_env(info, closure)
        # Nested defs first (deepest first), so each function claims
        # its own call sites before the enclosing function's walk
        # sweeps over them.
        for info in sorted(
            infos,
            key=lambda f: (-f.qualname.count(".<locals>."), f.line),
        ):
            env = envs[info.qualname]
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call) and id(node) not in consumed:
                    consumed.add(id(node))
                    self._resolve_site(info.qualname, node, info, env)
        for node in ast.walk(self.index.ctx.tree):
            if isinstance(node, ast.Call) and id(node) not in consumed:
                consumed.add(id(node))
                self._resolve_site(module_caller, node, None, _Env())

    # -- local type environment ---------------------------------------
    def _local_env(
        self,
        info: FunctionInfo,
        closure: Optional["_Env"] = None,
    ) -> "_Env":
        """Types for locals whose class is evident: annotations,
        constructor assignments, attribute chains off ``self``, local
        aliases, for-loop targets over typed containers, and
        bound-method aliases (``append = out.append``).

        ``closure`` is the enclosing function's environment for a
        nested ``def``: names this scope does not itself bind keep the
        enclosing type (Python scoping — an unqualified assignment
        makes a name local, so bound names never inherit). Seeded
        before the statement passes so chains *through* a closed-over
        receiver also type."""
        env = _Env()
        node = info.node
        for arg in (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        ):
            tname, elem = _annotation_info(arg.annotation)
            if tname is not None:
                env.types[arg.arg] = tname
            if elem is not None:
                env.elems[arg.arg] = elem
        if info.cls is not None and info.params and info.params[0] in (
            "self", "cls"
        ):
            env.types[info.params[0]] = info.cls.name
        if closure is not None:
            bound = _bound_names(node)
            for name, tname in closure.types.items():
                if name not in bound:
                    env.types.setdefault(name, tname)
            for name, elem in closure.elems.items():
                if name not in bound:
                    env.elems.setdefault(name, elem)
            env.assigned.update(
                name for name in closure.assigned if name not in bound
            )
        # Two passes so simple aliases settle (a = self.log; a.append).
        for _ in range(2):
            for stmt in ast.walk(node):
                self._type_stmt(stmt, info, env)
        for sub in ast.walk(node):
            # Comprehension targets get the element type of their
            # iterable (`f.to_dict() for f in findings`).
            if isinstance(sub, (ast.ListComp, ast.SetComp,
                                ast.GeneratorExp, ast.DictComp)):
                for generator in sub.generators:
                    if isinstance(generator.target, ast.Name):
                        _, elem = self._type_of(generator.iter, info, env)
                        if elem is not None:
                            env.types.setdefault(generator.target.id, elem)
            # Anything assigned anywhere (params included below) is a
            # candidate for higher-order calls.
            if isinstance(sub, ast.Name) and isinstance(
                sub.ctx, ast.Store
            ):
                env.assigned.add(sub.id)
            # A class defined inside a function is a callable local:
            # calling it is constructor-through-a-local-name, which we
            # classify as dynamic rather than leave unresolved.
            if isinstance(sub, ast.ClassDef):
                env.assigned.add(sub.name)
        env.assigned.update(info.params)
        env.assigned.update(info.kwonly)
        return env

    def _type_stmt(
        self, stmt: ast.stmt, info: FunctionInfo, env: "_Env"
    ) -> None:
        target: Optional[ast.AST] = None
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            tname, elem = _annotation_info(stmt.annotation)
            if tname is not None and isinstance(target, ast.Name):
                env.types.setdefault(target.id, tname)
                if elem is not None:
                    env.elems.setdefault(target.id, elem)
                return
            value = stmt.value
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            if isinstance(stmt.target, ast.Name):
                _, elem = self._type_of(stmt.iter, info, env)
                if elem is not None:
                    env.types.setdefault(stmt.target.id, elem)
            return
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    tname, elem = self._type_of(
                        item.context_expr, info, env
                    )
                    if tname is not None:
                        env.types.setdefault(item.optional_vars.id, tname)
                        if elem is not None:
                            env.elems.setdefault(
                                item.optional_vars.id, elem
                            )
            return
        if not isinstance(target, ast.Name) or value is None:
            return
        # Bound-method alias: `append = out.append` — calling the alias
        # later must resolve like calling `out.append(...)` directly.
        if isinstance(value, ast.Attribute) and not isinstance(
            value.ctx, ast.Store
        ):
            binding = self._bound_binding(value, info, env)
            if binding is not None:
                env.bound.setdefault(target.id, binding)
                return
        if target.id in env.types:
            return
        tname, elem = self._type_of(value, info, env)
        if tname is not None:
            env.types[target.id] = tname
            if elem is not None:
                env.elems[target.id] = elem

    def _bound_binding(
        self, value: ast.Attribute, info: FunctionInfo, env: "_Env"
    ) -> Optional[Tuple[str, Tuple[str, ...]]]:
        """Resolution for a method object stored in a local."""
        method = value.attr
        rtype, _ = self._type_of(value.value, info, env)
        if rtype == "<builtin>":
            return (EXTERNAL_KIND, ())
        if rtype is not None:
            cls = self._class_by_simple_name(rtype)
            if cls is None:
                return (EXTERNAL_KIND, ())
            found = cls.lookup(method)
            if found is not None:
                return ("bound", (found.qualname,))
        if method in BUILTIN_METHOD_NAMES:
            return (EXTERNAL_KIND, ())
        return None

    # -- expression typing --------------------------------------------
    def _type_of(
        self,
        expr: Optional[ast.AST],
        info: Optional[FunctionInfo],
        env: "_Env",
        depth: int = 0,
    ) -> Tuple[Optional[str], Optional[str]]:
        """(class simple name or ``<builtin>``, element class name)."""
        if expr is None or depth > 6:
            return None, None
        if isinstance(expr, ast.Name):
            tname = env.types.get(expr.id)
            if tname is not None or expr.id in env.assigned:
                return tname, env.elems.get(expr.id)
            # A module-level global (compiled regexes, singletons) —
            # only when no local binding shadows the name.
            return self.index.var_types.get(expr.id), None
        if isinstance(expr, ast.Attribute):
            base, _ = self._type_of(expr.value, info, env, depth + 1)
            if base is None or base == "<builtin>":
                return None, None
            cls = self._class_by_simple_name(base)
            if cls is None:
                if not self._is_known_class_name(base):
                    # Attribute of a foreign object (a regex Match, an
                    # argparse Namespace): whatever it holds, not ours.
                    return "<foreign>", None
                return None, None
            return cls.attr_type(expr.attr), cls.attr_elem(expr.attr)
        if isinstance(expr, ast.Subscript):
            _, elem = self._type_of(expr.value, info, env, depth + 1)
            return (elem, None) if elem is not None else (None, None)
        if isinstance(expr, ast.Call):
            return self._type_of_call(expr, info, env, depth)
        if isinstance(expr, ast.Await):
            return self._type_of(expr.value, info, env, depth + 1)
        if isinstance(expr, (ast.List, ast.ListComp, ast.Dict,
                             ast.DictComp, ast.Set, ast.SetComp,
                             ast.Tuple, ast.GeneratorExp, ast.Constant,
                             ast.JoinedStr, ast.Compare, ast.BoolOp)):
            return "<builtin>", None
        if isinstance(expr, ast.IfExp):
            tname, elem = self._type_of(expr.body, info, env, depth + 1)
            if tname is not None:
                return tname, elem
            return self._type_of(expr.orelse, info, env, depth + 1)
        return None, None

    def _type_of_call(
        self,
        expr: ast.Call,
        info: Optional[FunctionInfo],
        env: "_Env",
        depth: int,
    ) -> Tuple[Optional[str], Optional[str]]:
        """Constructor calls type as the class; resolvable function or
        method calls type as their return annotation. Foreign
        constructors (``argparse.ArgumentParser(...)``) type as their
        (not-in-tree) class name, so method calls on the result are
        classified external rather than unresolved."""
        func = expr.func
        ctype = _constructed_type(expr)
        if ctype == "<builtin>":
            return "<builtin>", None
        if isinstance(func, ast.Name):
            if ctype is not None and self._class_by_simple_name(ctype):
                return ctype, None
            fn = self._function_by_name(func.id, info)
            if fn is not None:
                return fn.returns_type, fn.returns_elem
            if func.id in _ELEMENT_PRESERVING_BUILTINS and expr.args:
                # sorted(xs) / list(xs) / reversed(xs): a new container
                # over the same elements.
                _, elem = self._type_of(expr.args[0], info, env, depth + 1)
                return "<builtin>", elem
            if ctype is not None:
                return ctype, None  # foreign class: typed, not ours
            return None, None
        if isinstance(func, ast.Attribute):
            base, _ = self._type_of(func.value, info, env, depth + 1)
            if base is not None and base != "<builtin>":
                cls = self._class_by_simple_name(base)
                if cls is not None:
                    found = cls.lookup(func.attr)
                    if found is not None:
                        return found.returns_type, found.returns_elem
                elif not self._is_known_class_name(base):
                    # Method result on a foreign object (subparsers.
                    # add_parser(...), pattern.match(...)): foreign too,
                    # so chained calls classify external, not unresolved.
                    return "<foreign>", None
                return None, None
            dotted = _dotted(func.value)
            if dotted is not None:
                src = self._module_by_alias(dotted)
                if src is not None:
                    if func.attr in src.functions:
                        fn = src.functions[func.attr]
                        return fn.returns_type, fn.returns_elem
                    if func.attr in src.classes:
                        return func.attr, None
                elif self._is_foreign_alias(dotted):
                    # hashlib.sha256(...), re.compile(...): whatever
                    # comes back, it is not ours.
                    return "<foreign>", None
            if ctype is not None:
                return ctype, None
        return None, None

    def _is_foreign_alias(self, dotted: str) -> bool:
        """Whether ``dotted`` names an out-of-tree imported module."""
        head = dotted.partition(".")[0]
        alias = self.index.module_aliases.get(head)
        return alias is not None and alias.split(".", 1)[0] != "repro"

    def _function_by_name(
        self, name: str, info: Optional[FunctionInfo]
    ) -> Optional[FunctionInfo]:
        """A plain-name callable in scope: nested def, module-level
        function, or (re-)imported symbol."""
        if info is not None:
            scope = self._nested_scope(info)
            if scope is not None and name in scope.nested:
                return scope.nested[name]
        if name in self.index.functions:
            return self.index.functions[name]
        if name in self.index.symbol_imports:
            module, symbol = self.index.symbol_imports[name]
            kind, obj = _resolve_symbol(self.graph, module, symbol)
            if kind == "fn":
                return obj
        return None

    def _nested_scope(
        self, info: FunctionInfo
    ) -> Optional[FunctionInfo]:
        """The top-level def whose ``nested`` map covers ``info``."""
        owner_qual = info.qualname.split(".<locals>.", 1)[0]
        if owner_qual == info.qualname:
            return info
        return self.graph.functions.get(owner_qual)

    def _module_by_alias(self, dotted: str) -> Optional[ModuleIndex]:
        """An in-tree ModuleIndex for a dotted receiver, if the head
        is an import alias (or module-valued symbol import)."""
        head, _, rest = dotted.partition(".")
        alias = self.index.module_aliases.get(head)
        if alias is None:
            sym = self.index.symbol_imports.get(head)
            if sym is not None:
                alias = f"{sym[0]}.{sym[1]}"
            else:
                return None
        if rest:
            alias = f"{alias}.{rest}"
        return self.graph.modules.get(alias)

    # -- resolution ----------------------------------------------------
    def _record(
        self,
        caller: str,
        node: ast.Call,
        name: str,
        kind: str,
        targets: Tuple[str, ...] = (),
    ) -> None:
        site = CallSite(
            caller, self.index.ctx.path, node, name, kind, targets
        )
        self.graph.calls.setdefault(caller, []).append(site)
        if targets:
            self.graph.edges.setdefault(caller, set()).update(targets)

    def _resolve_site(
        self,
        caller: str,
        node: ast.Call,
        info: Optional[FunctionInfo],
        env: "_Env",
    ) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self._resolve_name(caller, node, func.id, info, env)
        elif isinstance(func, ast.Attribute):
            self._resolve_attribute(caller, node, func, info, env)
        else:
            # Calls on call results / subscripts: out of scope.
            self._record(caller, node, "<expr>", UNRESOLVED_KIND)

    def _resolve_name(
        self,
        caller: str,
        node: ast.Call,
        name: str,
        info: Optional[FunctionInfo],
        env: "_Env",
    ) -> None:
        index = self.index
        if info is not None:
            scope = self._nested_scope(info)
            if scope is not None and name in scope.nested:
                self._record(
                    caller, node, name, "nested",
                    (scope.nested[name].qualname,),
                )
                return
            # `cls(...)` inside a classmethod constructs the class.
            if (
                name == "cls"
                and info.cls is not None
                and info.params
                and info.params[0] == "cls"
            ):
                self._constructor(caller, node, info.cls)
                return
        if name in env.bound:
            kind, targets = env.bound[name]
            self._record(caller, node, name, kind, targets)
            return
        if name in index.functions:
            self._record(
                caller, node, name, "direct",
                (index.functions[name].qualname,),
            )
            return
        if name in index.classes:
            self._constructor(caller, node, index.classes[name])
            return
        if name in index.symbol_imports:
            module, symbol = index.symbol_imports[name]
            kind, obj = _resolve_symbol(self.graph, module, symbol)
            if kind == "fn":
                self._record(
                    caller, node, name, "direct", (obj.qualname,)
                )
            elif kind == "cls":
                self._constructor(caller, node, obj)
            elif kind == "external":
                self._record(caller, node, name, EXTERNAL_KIND)
            else:
                self._record(caller, node, name, UNRESOLVED_KIND)
            return
        if name in _BUILTIN_NAMES:
            self._record(caller, node, name, EXTERNAL_KIND)
            return
        if name in env.assigned:
            # A function-valued parameter or local: the callee is
            # runtime data (callbacks, predicates, factories).
            self._record(caller, node, name, DYNAMIC_KIND)
            return
        self._record(caller, node, name, UNRESOLVED_KIND)

    def _constructor(
        self, caller: str, node: ast.Call, cls: ClassInfo
    ) -> None:
        self.graph.instantiated.add(cls.qualname)
        init = cls.lookup("__init__")
        targets = (init.qualname,) if init is not None else ()
        self._record(caller, node, cls.name, "constructor", targets)

    def _resolve_attribute(
        self,
        caller: str,
        node: ast.Call,
        func: ast.Attribute,
        info: Optional[FunctionInfo],
        env: "_Env",
    ) -> None:
        method = func.attr
        receiver = func.value
        # super().m(...) — the enclosing class's MRO minus itself.
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
            and info is not None
            and info.cls is not None
        ):
            for base in info.cls.mro()[1:]:
                if method in base.methods:
                    self._record(
                        caller, node, method, "self",
                        (base.methods[method].qualname,),
                    )
                    return
            if info.cls.chain_resolved:
                self._record(caller, node, method, UNRESOLVED_KIND)
            else:
                self._record(caller, node, method, EXTERNAL_KIND)
            return
        # self.m(...) / cls.m(...). The receiver must actually be the
        # instance/class binding — a ``@staticmethod``'s first
        # parameter is an ordinary (often annotated) argument and
        # falls through to the typed-receiver path below.
        if (
            isinstance(receiver, ast.Name)
            and info is not None
            and info.cls is not None
            and info.params
            and receiver.id == info.params[0]
            and info.params[0] in ("self", "cls")
        ):
            target = info.cls.lookup(method)
            if target is not None:
                self._record(
                    caller, node, method, "self", (target.qualname,)
                )
            elif not info.cls.chain_resolved:
                # An out-of-tree base (http.server handlers, unittest
                # cases) may well define it; not our unresolved debt.
                self._record(caller, node, method, EXTERNAL_KIND)
            else:
                # Either a data attribute holding a callable or a
                # slot assigned dynamically; be honest.
                self._record(caller, node, method, UNRESOLVED_KIND)
            return
        # mod.f(...) through an import alias (including dotted).
        dotted = _dotted(receiver)
        if dotted is not None and self._try_module_attr(
            caller, node, dotted, method
        ):
            return
        # ClassName.m(...) — a classmethod/staticmethod (or explicit
        # unbound-method) call on an in-tree class object. Skipped when
        # a local binding shadows the name; the typed-receiver path
        # below then judges the local instead.
        if (
            dotted is not None
            and not (
                isinstance(receiver, ast.Name)
                and (
                    receiver.id in env.types
                    or receiver.id in env.assigned
                )
            )
        ):
            cls_obj = _resolve_class_name(self.graph, self.index, dotted)
            if cls_obj is not None:
                target = cls_obj.lookup(method)
                if target is not None:
                    self._record(
                        caller, node, method, "typed",
                        (target.qualname,),
                    )
                elif cls_obj.chain_resolved:
                    self._record(caller, node, method, UNRESOLVED_KIND)
                else:
                    self._record(caller, node, method, EXTERNAL_KIND)
                return
        # Typed receiver.
        rtype, _elem = self._type_of(receiver, info, env)
        if rtype == "<builtin>":
            self._record(caller, node, method, EXTERNAL_KIND)
            return
        if rtype is not None:
            cls = self._class_by_simple_name(rtype)
            if cls is None:
                # Known foreign type (argparse.ArgumentParser,
                # random.Random, ...): nothing in-tree to point at.
                self._record(caller, node, method, EXTERNAL_KIND)
                return
            target = cls.lookup(method)
            if target is not None:
                self._record(
                    caller, node, method, "typed", (target.qualname,)
                )
                return
            if method in BUILTIN_METHOD_NAMES or not cls.chain_resolved:
                self._record(caller, node, method, EXTERNAL_KIND)
                return
            self._record(caller, node, method, UNRESOLVED_KIND)
            return
        # Untyped receiver: unique-method lookup.
        classes = self.definers.get(method, [])
        if method in BUILTIN_METHOD_NAMES:
            # Builtin container methods need a typed receiver to claim.
            self._record(caller, node, method, EXTERNAL_KIND)
            return
        if len(classes) == 1:
            target = classes[0].methods[method]
            self._record(caller, node, method, "unique", (target.qualname,))
            return
        if len(classes) > 1:
            self._record(caller, node, method, AMBIGUOUS_KIND)
            return
        self._record(caller, node, method, UNRESOLVED_KIND)

    def _try_module_attr(
        self, caller: str, node: ast.Call, dotted: str, method: str
    ) -> bool:
        head, _, rest = dotted.partition(".")
        alias = self.index.module_aliases.get(head)
        if alias is None:
            # "from repro import pbft" style: symbol import of a module.
            sym = self.index.symbol_imports.get(head)
            if sym is not None:
                candidate = f"{sym[0]}.{sym[1]}"
                if rest:
                    candidate = f"{candidate}.{rest}"
                if candidate in self.graph.modules:
                    alias = candidate
            if alias is None:
                return False
        else:
            if rest:
                alias = f"{alias}.{rest}"
        src = self.graph.modules.get(alias)
        if src is None:
            # A module alias that is not in the analyzed tree: stdlib
            # or third-party — external either way.
            root = alias.split(".", 1)[0]
            if root == "repro":
                return False
            self._record(caller, node, method, EXTERNAL_KIND)
            return True
        if method in src.functions:
            self._record(
                caller, node, method, "module",
                (src.functions[method].qualname,),
            )
            return True
        if method in src.classes:
            self._constructor(caller, node, src.classes[method])
            return True
        kind, obj = _resolve_symbol(self.graph, src.module, method)
        if kind == "fn":
            self._record(caller, node, method, "module", (obj.qualname,))
            return True
        if kind == "cls":
            self._constructor(caller, node, obj)
            return True
        self._record(caller, node, method, UNRESOLVED_KIND)
        return True

    def _is_known_class_name(self, name: str) -> bool:
        """Whether any in-tree class uses this simple name (even
        ambiguously) — the guard between 'foreign' and 'don't guess'."""
        return any(
            cls.name == name for cls in self.graph.classes.values()
        )

    def _class_by_simple_name(self, name: str) -> Optional[ClassInfo]:
        """A class by simple name: same module first, then imports,
        then a unique global match."""
        if name in self.index.classes:
            return self.index.classes[name]
        resolved = _resolve_class_name(self.graph, self.index, name)
        if resolved is not None:
            return resolved
        matches = [
            cls for cls in self.graph.classes.values() if cls.name == name
        ]
        if len(matches) == 1:
            return matches[0]
        return None


class _Env:
    """Per-function local typing environment."""

    __slots__ = ("types", "elems", "bound", "assigned")

    def __init__(self) -> None:
        #: local name -> class simple name or "<builtin>".
        self.types: Dict[str, str] = {}
        #: local name -> element class simple name (containers).
        self.elems: Dict[str, str] = {}
        #: local name -> (site kind, target qualnames) for locals
        #: holding bound methods.
        self.bound: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        #: every name bound in the function (params + assignments);
        #: calling one of these is higher-order flow ("dynamic").
        self.assigned: Set[str] = set()


def _resolve_symbol(
    graph: CallGraph, module: str, symbol: str, depth: int = 0
) -> Tuple[Optional[str], object]:
    """Resolve ``from module import symbol`` through re-export chains.

    Returns ("fn", FunctionInfo), ("cls", ClassInfo), ("external",
    None) for out-of-tree modules, or (None, None) when the in-tree
    module exists but the symbol cannot be found (dynamic export).
    """
    src = graph.modules.get(module)
    if src is None:
        # The whole module is outside the analyzed tree.
        return ("external", None) if not module.startswith("repro") \
            else (None, None)
    if symbol in src.functions:
        return "fn", src.functions[symbol]
    if symbol in src.classes:
        return "cls", src.classes[symbol]
    if symbol in src.var_types:
        return "var", src.var_types[symbol]
    if symbol in src.symbol_imports and depth < 8:
        next_module, next_symbol = src.symbol_imports[symbol]
        return _resolve_symbol(graph, next_module, next_symbol, depth + 1)
    return None, None
