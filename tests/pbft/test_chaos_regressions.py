"""Regression tests for bugs first caught by the chaos engine.

Each test pins one fix that was found by running seeded fault
schedules against the full middleware; the scenarios here reduce them
to the smallest PBFT-level reproduction.
"""

from repro.pbft.byzantine import SilentReplica
from repro.pbft.config import PBFTConfig
from repro.pbft.messages import (
    RECORD_TYPE_COMMIT,
    CatchUpResponse,
    CommittedEntry,
    PrePrepare,
    Prepare,
)
from repro.pbft.engine import request_digest

from tests.pbft.helpers import commit_values, make_group

FAST = PBFTConfig(request_timeout_ms=20.0, view_change_timeout_ms=40.0)


# ----------------------------------------------------------------------
# Digest-aware vote tallies
# ----------------------------------------------------------------------
def _pre_prepare(value, seq=1, request_id=("c", 1)):
    return PrePrepare(
        view=0,
        seq=seq,
        digest=request_digest(value, RECORD_TYPE_COMMIT, request_id),
        request_id=request_id,
        value=value,
    )


def test_prepares_for_a_different_digest_do_not_count():
    sim, replicas = make_group()
    replica = replicas[1]
    # Early votes for a digest the leader will NOT propose (byzantine
    # peers coordinating on a forged value).
    for voter in ("r2", "r3"):
        replica.engine.handle_prepare(
            Prepare(view=0, seq=1, digest="forged", replica=voter), voter
        )
    replica.engine.handle_pre_prepare(_pre_prepare("real"), "r0")
    slot = replica.slots[1]
    # Own vote for the real digest + two forged votes: no quorum, no
    # commit. A count-only tally would have seen 3 votes and committed.
    assert not slot.commit_sent
    # Matching votes for the fixed digest do complete the quorum.
    for voter in ("r2", "r3"):
        replica.engine.handle_prepare(
            Prepare(view=0, seq=1, digest=slot.digest, replica=voter), voter
        )
    assert slot.commit_sent


# ----------------------------------------------------------------------
# Catch-up preserves request identity
# ----------------------------------------------------------------------
def test_catch_up_adoption_records_the_request_id():
    sim, replicas = make_group()
    laggard = replicas[3]
    entry = CommittedEntry(
        seq=1, view=0, value="v", record_type=RECORD_TYPE_COMMIT,
        request_id=("client", 5),
    )
    for peer in ("r0", "r1"):  # f + 1 matching vouchers
        laggard.engine.handle_catch_up_response(
            CatchUpResponse(entries=[entry], replica=peer), peer
        )
    assert laggard.last_executed == 1
    # Without the request id, a view-change retry of ("client", 5)
    # would re-execute here while every peer no-ops it — a log fork.
    assert ("client", 5) in laggard.engine._executed_requests


# ----------------------------------------------------------------------
# View-change escalation past a silent byzantine leader
# ----------------------------------------------------------------------
def test_full_vote_quorum_escalates_past_a_silent_leader():
    sim, replicas = make_group(config=FAST, overrides={2: SilentReplica})
    honest = [replicas[0], replicas[1], replicas[3]]
    commit_values(sim, replicas[0], ["before"])
    # All honest members suspect into view 2 — whose leader is the
    # silent r2. None of them has pending work, so only the quorum
    # clause can unstick the group.
    for replica in honest:
        replica.engine.start_view_change(2)
    sim.run(until=sim.now + 500)
    assert max(replica.view for replica in honest) > 2
    entry = sim.run_until_resolved(
        replicas[0].submit("after"), max_events=20_000_000
    )
    assert entry.value == "after"


# ----------------------------------------------------------------------
# Recovery while a view change is in flight
# ----------------------------------------------------------------------
def test_replica_recovered_mid_view_change_rejoins_and_executes():
    sim, replicas = make_group(config=FAST)
    r0, r1, r2, r3 = replicas
    commit_values(sim, r0, ["a"])
    # r3 votes for view 1, then crashes before the view installs.
    r3.engine.start_view_change(1)
    sim.run(until=sim.now + 5)
    r3.crash()
    # The remaining replicas complete the view change while r3 is dark:
    # its pre-crash vote plus these two give r1 (leader of view 1) the
    # 2f+1 it needs, and no new entries commit in the meantime.
    r1.engine.start_view_change(1)
    r2.engine.start_view_change(1)
    sim.run(until=sim.now + 200)
    assert r1.view == 1 and r1.is_leader
    # r3 recovers into a world where its catch-up probe finds nothing
    # new; before the fix it stayed in_view_change forever and ignored
    # all view-1 traffic.
    r3.recover()
    sim.run(until=sim.now + 5)
    commit_values(sim, r1, ["b"])
    sim.run(until=sim.now + 1_000)
    assert r3.last_executed >= 2
    assert not r3.engine.in_view_change
    assert [e.value for e in r3.executed_entries][:2] == ["a", "b"]
