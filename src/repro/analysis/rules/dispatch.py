"""BP011 — handler state-machine exhaustiveness per consuming layer.

A ``handle_<kind>`` method existing *somewhere* in the tree is too weak
for a layered codebase: the PBFT engine, the Blockplane daemon node,
and the Paxos baseline each run their own state machine over a distinct
slice of the message inventory, and a handler defined on one layer does
not help another (``HierarchicalPBFTNode`` handling ``global_accept``
says nothing about ``MultiPaxosNode`` receiving ``promise``).

This rule extracts the dispatch table from the AST — methods that do
``getattr(self, f"handle_{...}")``, i.e. :meth:`Node.on_message` and
any future sibling — then checks, for every *root consuming layer* of
a wire-format module, that **all** of that module's message kinds
resolve to a registered handler through the layer's MRO, and that the
layer actually inherits the dispatcher (the handler is reachable, not
just defined). A layer need not *be* a node: a class whose bound
handlers a dispatch-connected node installs into its dispatch table
(``self._dispatch[...] = getattr(self.engine, ...)`` with ``engine``
typed by annotation) is a consuming layer reachable through that host.

A class is a *consuming layer* of a messages module when it defines
its own handler for at least one of the module's kinds; it is a *root*
consumer when no base class already consumes the module (subclasses —
byzantine variants overriding a handler or two — inherit the root's
coverage and are not re-audited). The inverse direction is covered
too: a ``handle_<x>`` method on a dispatch-connected class whose
``<x>`` matches no known message kind is an orphan — dispatch can
never reach it, usually a renamed kind.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.callgraph import _dotted, _resolve_class_name
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, Project, register
from repro.analysis.rules.handlers import _is_message_subclass, _message_kind

HANDLER_PREFIX = "handle_"


def _dispatcher_methods(graph) -> Set[Tuple[str, str]]:
    """(class qualname, method name) pairs that dispatch by kind.

    A dispatcher is any method containing ``getattr(self,
    f"handle_{...}")`` (or the ``"handle_" + ...`` spelling).
    """
    dispatchers: Set[Tuple[str, str]] = set()
    for cls in graph.classes.values():
        for name, method in cls.methods.items():
            for node in ast.walk(method.node):
                if _is_handler_getattr(node):
                    dispatchers.add((cls.qualname, name))
                    break
    return dispatchers


def _is_handler_getattr(node: ast.AST) -> bool:
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
    ):
        return False
    key = node.args[1]
    if isinstance(key, ast.JoinedStr):
        parts = key.values
        return bool(parts) and (
            isinstance(parts[0], ast.Constant)
            and isinstance(parts[0].value, str)
            and parts[0].value.startswith(HANDLER_PREFIX)
        )
    if isinstance(key, ast.BinOp) and isinstance(key.op, ast.Add):
        left = key.left
        return (
            isinstance(left, ast.Constant)
            and isinstance(left.value, str)
            and left.value.startswith(HANDLER_PREFIX)
        )
    return False


def _held_layers(graph, hosts) -> Set[str]:
    """Qualnames of classes whose bound handlers a class in ``hosts``
    stores into ``self._dispatch[...]`` as ``getattr(self.<attr>, ...)``."""
    held: Set[str] = set()
    for host in hosts:
        for method in host.methods.values():
            for node in ast.walk(method.node):
                if not (
                    isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Subscript)
                    and _dotted(node.targets[0].value) == "self._dispatch"
                    and isinstance(node.value, ast.Call)
                    and _dotted(node.value.func) == "getattr"
                    and node.value.args
                ):
                    continue
                holder = _dotted(node.value.args[0]) or ""
                type_name = holder.startswith("self.") and host.attr_type(
                    holder[len("self."):]
                )
                engine = type_name and _resolve_class_name(
                    graph, graph.modules.get(host.module), type_name
                )
                if engine:
                    held.add(engine.qualname)
    return held


@register
class DispatchExhaustivenessChecker(Checker):
    """BP011 — every consuming layer handles its whole message slice."""

    rule = "BP011"
    summary = (
        "each root consumer of a */messages.py module resolves a "
        "reachable handle_<kind> for every kind it consumes; no "
        "orphan handlers"
    )
    rationale = (
        "Layers run disjoint state machines over the shared wire "
        "inventory: a handler that exists on the Paxos baseline does "
        "not save the PBFT replica from ProtocolError when the kind "
        "arrives there. Exhaustiveness must hold per consuming layer, "
        "through the MRO, and only counts if the layer inherits the "
        "getattr dispatcher that would ever invoke the handler — or is "
        "held by a node that installs its handlers for dispatch."
    )
    requires_interproc = True

    def analyze_project(self, project: Project) -> List[Finding]:
        graph = project.graph
        #: messages module name -> [(ClassInfo, kind)].
        inventories: Dict[str, List[Tuple[object, str]]] = {}
        #: every kind any Message subclass anywhere declares.
        all_kinds: Set[str] = set()
        for ctx in project.contexts:
            module_classes = [
                cls for cls in graph.classes.values()
                if cls.module == ctx.module
                and isinstance(cls.node, ast.ClassDef)
                and _is_message_subclass(cls.node)
            ]
            for cls in module_classes:
                all_kinds.add(_message_kind(cls.node))
            if ctx.is_messages_module and ctx.is_protocol:
                inventories[ctx.module] = [
                    (cls, _message_kind(cls.node)) for cls in module_classes
                ]
        if not inventories:
            return []

        dispatchers = _dispatcher_methods(graph)
        dispatcher_classes = {qual for qual, _ in dispatchers}

        def dispatch_connected(cls) -> bool:
            return any(
                c.qualname in dispatcher_classes for c in cls.mro()
            )

        # A held engine is dispatched to through its host's table.
        dispatcher_classes |= _held_layers(
            graph, [c for c in graph.classes.values() if dispatch_connected(c)]
        )
        layers = [
            cls for cls in graph.classes.values()
            if cls.chain_resolved and dispatch_connected(cls)
        ]

        def own_kinds(cls) -> Set[str]:
            return {
                name[len(HANDLER_PREFIX):]
                for name in cls.methods
                if name.startswith(HANDLER_PREFIX)
            }

        def consumes(cls, module: str) -> bool:
            kinds = {kind for _, kind in inventories[module]}
            return bool(own_kinds(cls) & kinds)

        findings: List[Finding] = []
        for module, inventory in sorted(inventories.items()):
            roots = [
                cls for cls in layers
                if consumes(cls, module)
                and not any(
                    consumes(base, module) for base in cls.mro()[1:]
                )
            ]
            for msg_cls, kind in inventory:
                missing = sorted(
                    cls.name for cls in roots
                    if cls.lookup(HANDLER_PREFIX + kind) is None
                )
                if missing:
                    findings.append(
                        Finding(
                            self.rule, msg_cls.path, msg_cls.node.lineno,
                            msg_cls.node.col_offset,
                            f"message `{msg_cls.name}` (kind `{kind}`) "
                            f"has no reachable handler in consuming "
                            f"layer(s) {', '.join(missing)}; dispatch "
                            "raises ProtocolError there at runtime",
                        )
                    )

        # Orphan handlers: reachable dispatch can never name them.
        for cls in layers:
            for name, method in sorted(cls.methods.items()):
                if not name.startswith(HANDLER_PREFIX):
                    continue
                kind = name[len(HANDLER_PREFIX):]
                if kind not in all_kinds:
                    findings.append(
                        Finding(
                            self.rule, method.path, method.line, 0,
                            f"orphan handler `{name}` on `{cls.name}`: "
                            f"no message class declares kind `{kind}` "
                            "— dead code or a renamed kind",
                        )
                    )
        return findings
