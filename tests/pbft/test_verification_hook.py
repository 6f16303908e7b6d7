"""Tests for Blockplane's PBFT modifications: record types and the
verification-routine hook between prepared and commit."""

import pytest

from repro.errors import VerificationFailed
from tests.pbft.helpers import assert_honest_agreement, commit_values, make_group


def test_verifier_accepting_everything_commits_normally():
    sim, replicas = make_group(verifier=lambda v, rt, m: True)
    entries = commit_values(sim, replicas[0], ["a", "b"])
    assert [e.value for e in entries] == ["a", "b"]


def test_verifier_rejection_prevents_commit():
    sim, replicas = make_group(verifier=lambda v, rt, m: v != "bad")
    future = replicas[0].submit("bad")
    with pytest.raises(VerificationFailed):
        sim.run_until_resolved(future, max_events=1_000_000)


def test_honest_leader_prevalidates_and_rejects_quickly():
    sim, replicas = make_group(verifier=lambda v, rt, m: v != "bad")
    future = replicas[0].submit("bad")
    sim.run(until=10.0)
    assert future.resolved
    assert isinstance(future.exception, VerificationFailed)
    # No sequence number was burned: a good value still lands at seq 1.
    entries = commit_values(sim, replicas[0], ["good"])
    assert entries[0].seq == 1


def test_verifier_sees_record_type_and_meta():
    seen = []

    def verifier(value, record_type, meta):
        seen.append((value, record_type, meta))
        return True

    sim, replicas = make_group(verifier=verifier)
    future = replicas[0].submit(
        "v", record_type="communication", meta={"destination": "X"}
    )
    sim.run_until_resolved(future)
    assert ("v", "communication", {"destination": "X"}) in seen


def test_crashing_verifier_counts_as_rejection():
    def verifier(value, record_type, meta):
        if value == "explode":
            raise RuntimeError("verifier bug")
        return True

    sim, replicas = make_group(verifier=verifier)
    future = replicas[0].submit("explode")
    with pytest.raises((VerificationFailed, Exception)):
        sim.run_until_resolved(future, max_events=500_000)


def test_deferred_verification_retries_after_progress():
    # A verifier that defers until an earlier value has executed models
    # Blockplane's chain-ordered receive verification.
    class ChainVerifier:
        def __init__(self, replica_box):
            self.replica_box = replica_box

        def __call__(self, value, record_type, meta):
            replica = self.replica_box[0]
            if value == "second":
                done = [e.value for e in replica.executed_entries]
                if "first" not in done:
                    return None  # defer
            return True

    boxes = []
    sim, replicas = make_group(verifier=lambda v, rt, m: True)
    for replica in replicas:
        box = [replica]
        boxes.append(box)
        replica.verifier = ChainVerifier(box)
    f1 = replicas[0].submit("first")
    f2 = replicas[0].submit("second")
    sim.run_until_resolved(f2, max_events=5_000_000)
    sim.run(until=sim.now + 10)
    assert_honest_agreement(replicas, expected_length=2)
    values = [e.value for e in replicas[1].executed_entries]
    assert values == ["first", "second"]


def test_noop_record_type_always_passes_verification():
    sim, replicas = make_group(verifier=lambda v, rt, m: False)
    # Everything is rejected by this verifier except protocol no-ops;
    # the group must still be able to fill holes after view changes.
    from repro.pbft.engine import NOOP_RECORD_TYPE

    assert replicas[0].engine.verdict(None, NOOP_RECORD_TYPE, None) is True
