"""Tests for the leader pre-validation / request-rejection path."""

from repro.errors import VerificationFailed
from repro.pbft.messages import RejectRequest
from tests.pbft.helpers import commit_values, make_group


def test_rejection_reaches_remote_origin():
    sim, replicas = make_group(verifier=lambda v, rt, m: v != "bad")
    future = replicas[2].submit("bad")  # follower origin
    sim.run(until=50.0)
    assert future.resolved
    assert isinstance(future.exception, VerificationFailed)


def test_non_leader_cannot_kill_requests_with_forged_rejections():
    sim, replicas = make_group()
    future = replicas[0].submit("victim")
    # A byzantine follower forges a rejection; only the current
    # leader's word counts, so the request must still commit.
    forged = RejectRequest(
        request_id=("r0", 1), reason="forged", replica="r2"
    )
    replicas[0].engine.handle_reject_request(forged, "r2")
    entry = sim.run_until_resolved(future, max_events=5_000_000)
    assert entry.value == "victim"


def test_rejected_request_does_not_burn_sequence_numbers():
    sim, replicas = make_group(verifier=lambda v, rt, m: v != "bad")
    bad = replicas[0].submit("bad")
    sim.run(until=20.0)
    assert bad.resolved and bad.exception is not None
    entries = commit_values(sim, replicas[0], ["good1", "good2"])
    assert [entry.seq for entry in entries] == [1, 2]


def test_rejection_reason_is_propagated():
    sim, replicas = make_group(verifier=lambda v, rt, m: v != "bad")
    future = replicas[0].submit("bad")
    sim.run(until=20.0)
    assert "verification routine" in str(future.exception)
