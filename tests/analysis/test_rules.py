"""Golden fixtures per rule: known-bad must flag with the right rule
id, known-good must pass."""

import textwrap

from repro.analysis import analyze_source, registered_checkers, run_analysis


def check(rule, source, module="repro.core.fixture"):
    checker = registered_checkers()[rule]()
    findings = analyze_source(
        textwrap.dedent(source), "fixture.py", [checker], module=module
    )
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# BP001 — determinism
# ----------------------------------------------------------------------

def test_bp001_flags_wall_clock():
    assert check("BP001", """
        import time

        def stamp():
            return time.time()
    """) == ["BP001"]


def test_bp001_flags_aliased_import():
    assert check("BP001", """
        from time import monotonic

        def stamp():
            return monotonic()
    """) == ["BP001"]


def test_bp001_flags_global_random():
    assert check("BP001", """
        import random

        def backoff():
            return random.random() * 10
    """) == ["BP001"]


def test_bp001_allows_seeded_generator():
    assert check("BP001", """
        import random

        def make_rng(seed):
            return random.Random(seed)
    """) == []


def test_bp001_flags_set_ordered_fanout():
    assert check("BP001", """
        def fan_out(self, peers):
            for peer in set(peers):
                self.send(peer, "ping")
    """) == ["BP001"]


def test_bp001_allows_sorted_fanout():
    assert check("BP001", """
        def fan_out(self, peers):
            for peer in sorted(set(peers)):
                self.send(peer, "ping")
    """) == []


def test_bp001_ignores_non_protocol_modules():
    assert check("BP001", """
        import time

        def stamp():
            return time.time()
    """, module="repro.obs.hub") == []


# ----------------------------------------------------------------------
# BP002 — quorum literals
# ----------------------------------------------------------------------

def test_bp002_flags_commit_quorum_literal():
    assert check("BP002", """
        def quorum(self):
            return 2 * self.f + 1
    """) == ["BP002"]


def test_bp002_flags_unit_size_literal():
    assert check("BP002", """
        def members(f):
            return 3 * f + 1
    """) == ["BP002"]


def test_bp002_flags_reply_quorum_literal():
    assert check("BP002", """
        def needed(self):
            return self.f_geo + 1
    """) == ["BP002"]


def test_bp002_flags_majority_literal():
    assert check("BP002", """
        def majority(nodes):
            return len(nodes) // 2 + 1
    """) == ["BP002"]


def test_bp002_flags_max_faulty_literal():
    assert check("BP002", """
        def faulty(n):
            return (n - 1) // 3
    """) == ["BP002"]


def test_bp002_allows_helper_calls_and_unrelated_arithmetic():
    assert check("BP002", """
        from repro.pbft.quorums import commit_quorum

        def quorum(self):
            return commit_quorum(self.f)

        def unrelated(x):
            return 2 * x + 3
    """) == []


# ----------------------------------------------------------------------
# BP003 — unchecked sealed-transmission payload reads
# ----------------------------------------------------------------------

def test_bp003_flags_unverified_payload_read():
    assert check("BP003", """
        def ingest(self, sealed):
            record = sealed.record
            self.apply(record.message)
    """) == ["BP003"]


def test_bp003_allows_read_dominated_by_check():
    assert check("BP003", """
        def ingest(self, sealed):
            record = sealed.record
            if not sealed.proof.is_valid(record.digest()):
                return
            self.apply(record.message)
    """) == []


def test_bp003_flags_branch_that_skips_verification():
    # The else-branch reads the payload without any dominating check.
    assert check("BP003", """
        def ingest(self, sealed, fast_path):
            record = sealed.record
            if fast_path:
                self.apply(record.message)
            else:
                if sealed.proof.is_valid(record.digest()):
                    self.apply(record.message)
    """) == ["BP003"]


# ----------------------------------------------------------------------
# BP004 — handler purity (exhaustiveness is BP011: test_dispatch_rule.py)
# ----------------------------------------------------------------------

def test_bp004_flags_handler_mutating_message():
    assert check("BP004", """
        class Server:
            def handle_ping(self, msg, src):
                msg.seq += 1
    """) == ["BP004"]


def test_bp004_allows_pure_handler():
    assert check("BP004", """
        class Server:
            def handle_ping(self, msg, src):
                self.last = msg.seq
    """) == []


# ----------------------------------------------------------------------
# BP005 — proofs read by handlers must be verified
# ----------------------------------------------------------------------

def test_bp005_flags_proof_read_without_verification():
    assert check("BP005", """
        class Server:
            def handle_mirror_response(self, msg, src):
                self.proofs.append(msg.proof)
    """) == ["BP005"]


def test_bp005_allows_verified_proof_read():
    assert check("BP005", """
        class Server:
            def handle_mirror_response(self, msg, src):
                if not msg.proof.is_valid(msg.digest):
                    return
                self.proofs.append(msg.proof)
    """) == []


# ----------------------------------------------------------------------
# BP006 — exception discipline
# ----------------------------------------------------------------------

def test_bp006_flags_bare_except():
    assert check("BP006", """
        def run(step):
            try:
                step()
            except:
                pass
    """) == ["BP006"]


def test_bp006_flags_silent_blanket_handler():
    assert check("BP006", """
        def run(step):
            try:
                step()
            except Exception:
                pass
    """) == ["BP006"]


def test_bp006_allows_verdict_returning_handler():
    assert check("BP006", """
        def valid(check):
            try:
                check()
            except Exception:
                return False
            return True
    """) == []


# ----------------------------------------------------------------------
# BP007 — float virtual-time equality
# ----------------------------------------------------------------------

def test_bp007_flags_time_equality():
    assert check("BP007", """
        def expired(self, deadline_ms):
            return self.sim.now == deadline_ms
    """) == ["BP007"]


def test_bp007_allows_sentinel_and_ordered_comparison():
    assert check("BP007", """
        def expired(self, deadline_ms):
            if deadline_ms == -1:
                return False
            return self.sim.now >= deadline_ms
    """) == []


# ----------------------------------------------------------------------
# BP008 — slotted wire messages
# ----------------------------------------------------------------------

def test_bp008_flags_unslotted_message():
    assert check("BP008", """
        import dataclasses
        from repro.sim.node import Message

        @dataclasses.dataclass
        class Vote(Message):
            seq: int = 0
    """, module="repro.fake.messages") == ["BP008"]


def test_bp008_allows_slots_dataclass_and_explicit_slots():
    assert check("BP008", """
        import dataclasses
        from repro.sim.node import Message

        @dataclasses.dataclass(slots=True)
        class Vote(Message):
            seq: int = 0

        class Manual(Message):
            __slots__ = ("seq",)
    """, module="repro.fake.messages") == []


def test_bp008_ignores_non_message_modules():
    assert check("BP008", """
        import dataclasses
        from repro.sim.node import Message

        @dataclasses.dataclass
        class Scratch(Message):
            seq: int = 0
    """, module="repro.fake.helpers") == []
