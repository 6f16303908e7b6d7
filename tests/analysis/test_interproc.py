"""Interprocedural taint engine: BP009/BP010 goldens.

The centerpiece fixture is the cross-function unverified snapshot
install: the handler decodes a wire offer in one method and a helper
two hops away appends it to the Local Log. BP003/BP005 are
intraprocedural and provably blind to it (asserted below); BP009 walks
the call graph and catches it.
"""

import ast
import pathlib
import textwrap

from repro.analysis.framework import ModuleContext, registered_checkers
from repro.analysis.interproc import (
    bp009_findings,
    bp010_findings,
    run_taint_engine,
)


def ctx(module, source):
    path = "src/" + module.replace(".", "/") + ".py"
    return ModuleContext(
        path, source, ast.parse(textwrap.dedent(source)), module=module
    )


def engine_of(*pairs):
    contexts = [ctx(m, s) for m, s in pairs]
    _, engine = run_taint_engine(contexts)
    return contexts, engine


WIRE = """
def decode_wire(raw):
    return raw
"""

SNAPSHOT_INSTALL = """
from repro.core.codec import decode_wire

class LocalLog:
    def append(self, entry):
        pass

class Daemon:
    def __init__(self):
        self.log = LocalLog()

    def handle_snapshot_offer(self, msg, src):
        entry = decode_wire(msg)
        self._stage(entry)

    def _stage(self, entry):
        self._install(entry)

    def _install(self, entry):
        self.log.append(entry)
"""


def test_bp009_catches_cross_function_snapshot_install():
    _, engine = engine_of(
        ("repro.core.codec", WIRE),
        ("repro.core.daemon", SNAPSHOT_INSTALL),
    )
    findings = bp009_findings(engine)
    assert len(findings) == 1, findings
    (finding,) = findings
    assert finding.rule == "BP009"
    assert "Local Log append" in finding.message
    assert "_install" in finding.message  # the taint path is named


def test_bp003_bp005_provably_miss_the_cross_function_case():
    # The same fixture, run through the intraprocedural proof rules:
    # each function is individually innocent, so they stay silent.
    registry = registered_checkers()
    checkers = [registry["BP003"](), registry["BP005"]()]
    findings = []
    for module, source in (
        ("repro.core.codec", WIRE),
        ("repro.core.daemon", SNAPSHOT_INSTALL),
    ):
        context = ctx(module, textwrap.dedent(source))
        for checker in checkers:
            findings.extend(checker.visit_module(context))
    assert findings == [], findings


def test_bp009_negative_dominating_sanitizer_clears_the_path():
    sanitized = SNAPSHOT_INSTALL.replace(
        "    def _install(self, entry):\n"
        "        self.log.append(entry)\n",
        "    def _install(self, entry):\n"
        "        if not self.verify_entry(entry):\n"
        "            return\n"
        "        self.log.append(entry)\n"
        "\n"
        "    def verify_entry(self, entry):\n"
        "        return True\n",
    )
    assert sanitized != SNAPSHOT_INSTALL
    _, engine = engine_of(
        ("repro.core.codec", WIRE),
        ("repro.core.daemon", sanitized),
    )
    assert bp009_findings(engine) == []


def test_bp009_wire_param_entry_point_is_a_source():
    # Even without a decode call, a handle_* wire parameter flowing
    # into executed state is flagged.
    _, engine = engine_of(
        (
            "repro.pbft.mini",
            """
            class Replica:
                def handle_commit(self, msg, src):
                    self._fold(msg)

                def _fold(self, msg):
                    self.last_executed = msg
            """,
        ),
    )
    findings = bp009_findings(engine)
    assert len(findings) == 1
    assert "executed-watermark" in findings[0].message


def test_bp010_verification_name_returning_taint():
    _, engine = engine_of(
        (
            "repro.core.check",
            """
            def verify_snapshot(msg):
                return msg
            """,
        ),
    )
    findings = bp010_findings(engine)
    assert len(findings) == 1
    assert "claims verification" in findings[0].message


def test_bp010_negative_verification_returning_verdict():
    _, engine = engine_of(
        (
            "repro.core.check",
            """
            def verify_snapshot(msg):
                return msg.digest == "ok"
            """,
        ),
    )
    assert bp010_findings(engine) == []


def test_bp010_discarded_verdict():
    source = """
    class Proof:
        def is_valid(self, registry):
            return True

    class Replica:
        def handle_commit(self, msg, src):
            proof = Proof()
            proof.is_valid(None)
            self.adopt(msg)

        def adopt(self, msg):
            pass
    """
    _, engine = engine_of(("repro.pbft.mini", source))
    findings = bp010_findings(engine)
    assert len(findings) == 1
    assert "discarded" in findings[0].message


def test_bp010_negative_consumed_verdict():
    source = """
    class Proof:
        def is_valid(self, registry):
            return True

    class Replica:
        def handle_commit(self, msg, src):
            proof = Proof()
            if not proof.is_valid(None):
                return
            self.adopt(msg)

        def adopt(self, msg):
            pass
    """
    _, engine = engine_of(("repro.pbft.mini", source))
    assert bp010_findings(engine) == []


# ----------------------------------------------------------------------
# Mutation check on real source: the transmission ingress
# ----------------------------------------------------------------------
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
INGRESS_CHECK = (
    "if not self.proof_valid(sealed.proof, record.digest(), record.source):"
)


def ingress_findings(node_source):
    """BP009 findings in ``repro/core/node.py`` when analysed together
    with the PBFT host and engine it submits through."""
    contexts = [ctx("repro.core.node", node_source)] + [
        ctx(module, (SRC / (module.replace(".", "/") + ".py")).read_text())
        for module in ("repro.pbft.replica", "repro.pbft.engine")
    ]
    _, engine = run_taint_engine(contexts)
    return [
        finding for finding in bp009_findings(engine)
        if finding.path == "src/repro/core/node.py"
    ]


def test_bp009_flags_an_ingress_that_drops_the_proof_check():
    # A received transmission must not reach a consensus proposal
    # unless Section IV-C's unit-proof test dominates the submission.
    source = (SRC / "repro" / "core" / "node.py").read_text()
    head, handler = source.split("def handle_transmission_message(")
    assert INGRESS_CHECK in handler
    mutated = head + "def handle_transmission_message(" + handler.replace(
        INGRESS_CHECK, "if False:", 1
    )
    findings = ingress_findings(mutated)
    assert len(findings) == 1, findings
    assert "handle_transmission_message" in findings[0].message
    assert "consensus proposal" in findings[0].message
    assert ingress_findings(source) == []
