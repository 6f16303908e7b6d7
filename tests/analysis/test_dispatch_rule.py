"""BP011: per-layer dispatch exhaustiveness goldens."""

import ast
import textwrap

from repro.analysis.callgraph import build_call_graph
from repro.analysis.framework import ModuleContext, Project, registered_checkers


def ctx(module, source):
    path = "src/" + module.replace(".", "/") + ".py"
    return ModuleContext(
        path, source, ast.parse(textwrap.dedent(source)), module=module
    )


SIM_NODE = """
class Message:
    kind = "message"

class Node:
    def on_message(self, message, src):
        handler = getattr(self, f"handle_{message.kind}", None)
        handler(message, src)
"""

MESSAGES = """
from repro.sim.node import Message

class Ping(Message):
    pass

class Pong(Message):
    pass
"""


def findings_of(*pairs):
    contexts = [ctx(m, s) for m, s in pairs]
    graph = build_call_graph(contexts)
    checker = registered_checkers()["BP011"]()
    return checker.analyze_project(Project(contexts, graph, None))


def test_missing_handler_in_consuming_layer_is_flagged():
    findings = findings_of(
        ("repro.sim.node", SIM_NODE),
        ("repro.pbft.messages", MESSAGES),
        (
            "repro.pbft.replica",
            """
            from repro.sim.node import Node

            class Replica(Node):
                def handle_ping(self, msg, src):
                    pass
            """,
        ),
    )
    assert len(findings) == 1, findings
    (finding,) = findings
    assert finding.rule == "BP011"
    assert "Pong" in finding.message and "Replica" in finding.message
    assert finding.path == "src/repro/pbft/messages.py"


def test_full_coverage_is_clean():
    findings = findings_of(
        ("repro.sim.node", SIM_NODE),
        ("repro.pbft.messages", MESSAGES),
        (
            "repro.pbft.replica",
            """
            from repro.sim.node import Node

            class Replica(Node):
                def handle_ping(self, msg, src):
                    pass

                def handle_pong(self, msg, src):
                    pass
            """,
        ),
    )
    assert findings == []


def test_byzantine_subclass_is_not_reaudited():
    # A subclass overriding one handler inherits the root's coverage;
    # only the root consuming layer is audited.
    findings = findings_of(
        ("repro.sim.node", SIM_NODE),
        ("repro.pbft.messages", MESSAGES),
        (
            "repro.pbft.replica",
            """
            from repro.sim.node import Node

            class Replica(Node):
                def handle_ping(self, msg, src):
                    pass

                def handle_pong(self, msg, src):
                    pass

            class EquivocatingReplica(Replica):
                def handle_ping(self, msg, src):
                    pass
            """,
        ),
    )
    assert findings == []


def test_disconnected_class_is_not_a_consuming_layer():
    # A class with handler-shaped methods but no Node ancestry (no
    # dispatcher in its MRO) is outside the state machine.
    findings = findings_of(
        ("repro.sim.node", SIM_NODE),
        ("repro.pbft.messages", MESSAGES),
        (
            "repro.pbft.replica",
            """
            from repro.sim.node import Node

            class Replica(Node):
                def handle_ping(self, msg, src):
                    pass

                def handle_pong(self, msg, src):
                    pass

            class OfflineAnalyzer:
                def handle_ping(self, msg, src):
                    pass
            """,
        ),
    )
    assert findings == []


def test_orphan_handler_is_flagged():
    findings = findings_of(
        ("repro.sim.node", SIM_NODE),
        ("repro.pbft.messages", MESSAGES),
        (
            "repro.pbft.replica",
            """
            from repro.sim.node import Node

            class Replica(Node):
                def handle_ping(self, msg, src):
                    pass

                def handle_pong(self, msg, src):
                    pass

                def handle_zap(self, msg, src):
                    pass
            """,
        ),
    )
    assert len(findings) == 1
    assert "orphan handler `handle_zap`" in findings[0].message


def test_local_message_classes_count_for_orphan_inventory():
    # Kinds declared outside a */messages.py module (baseline-local
    # wire types) still satisfy the orphan check.
    findings = findings_of(
        ("repro.sim.node", SIM_NODE),
        ("repro.pbft.messages", MESSAGES),
        (
            "repro.baselines.hier",
            """
            from repro.sim.node import Node, Message

            class GlobalAccept(Message):
                pass

            class HierNode(Node):
                def handle_global_accept(self, msg, src):
                    pass
            """,
        ),
        (
            "repro.pbft.replica",
            """
            from repro.sim.node import Node

            class Replica(Node):
                def handle_ping(self, msg, src):
                    pass

                def handle_pong(self, msg, src):
                    pass
            """,
        ),
    )
    assert findings == []


HOST = """
from repro.sim.node import Node
from repro.pbft.engine import Engine

class Replica(Node):
    def __init__(self):
        self.engine: Engine = Engine()
        for name in dir(self.engine):
            self._dispatch[name[7:]] = getattr(self.engine, name)
"""


def held_engine_findings(engine_source):
    return findings_of(
        ("repro.sim.node", SIM_NODE),
        ("repro.pbft.messages", MESSAGES),
        ("repro.pbft.engine", engine_source),
        ("repro.pbft.replica", HOST),
    )


def test_held_engine_missing_a_kind_is_flagged():
    # The engine is no Node, but a Node installs its bound handlers for
    # dispatch: it is the consuming layer, reachable through that host.
    findings = held_engine_findings(
        """
        class Engine:
            def handle_ping(self, msg, src):
                pass
        """
    )
    assert len(findings) == 1, findings
    assert "Pong" in findings[0].message and "Engine" in findings[0].message


def test_complete_held_engine_is_clean():
    findings = held_engine_findings(
        """
        class Engine:
            def handle_ping(self, msg, src):
                pass

            def handle_pong(self, msg, src):
                pass

        class TamperingEngine(Engine):
            def handle_ping(self, msg, src):
                pass
        """
    )
    assert findings == []
