"""PBFT byzantine-behaviour tests: safety with f arbitrary nodes.

These validate the claims Blockplane inherits from PBFT: with at most
``f`` byzantine unit members, honest replicas never diverge and
progress continues.
"""

import dataclasses

from repro.errors import VerificationFailed
from repro.pbft.byzantine import (
    BogusProposer,
    EquivocatingEngine,
    EquivocatingLeader,
    SilentReplica,
    TamperingVoter,
)
from repro.pbft.config import PBFTConfig
from repro.pbft.engine import PBFTEngine, request_digest
from repro.pbft.messages import PrePrepare, Reply
from repro.pbft.replica import PBFTReplica
from tests.pbft.helpers import assert_honest_agreement, commit_values, make_group

FAST = PBFTConfig(request_timeout_ms=20.0, view_change_timeout_ms=40.0)


def test_silent_replica_does_not_block_commit():
    sim, replicas = make_group(overrides={3: SilentReplica})
    commit_values(sim, replicas[0], ["a", "b"])
    sim.run(until=sim.now + 10)
    assert_honest_agreement(replicas[:3], expected_length=2)
    assert replicas[3].executed_entries == []


def test_equivocating_leader_cannot_split_honest_replicas(obs):
    sim, replicas = make_group(
        overrides={0: EquivocatingLeader},
        config=FAST,
        override_kwargs={"forged_value": "EVIL"},
        obs=obs,
    )
    # Submit through a follower so the byzantine leader orders it.
    future = replicas[1].submit("GOOD")
    sim.run(until=500.0, max_events=20_000_000)
    honest = replicas[1:]
    # Safety: honest replicas never execute conflicting values at the
    # same sequence number.
    logs = [[(e.seq, e.value) for e in r.executed_entries] for r in honest]
    longest = max(logs, key=len)
    for log in logs:
        assert log == longest[: len(log)]
    # The forged value never executes anywhere honest: at most one of
    # the two conflicting proposals can gather a prepare quorum.
    for log in logs:
        assert ("EVIL" not in [value for _seq, value in log])
    # Liveness: the request eventually commits (possibly after a view
    # change deposes the equivocator).
    view_changes = obs.counter("pbft_view_changes_total", participant="DC")
    assert future.resolved or view_changes.value > 0


class SameDigestEngine(EquivocatingEngine):
    """Equivocates *under one digest*: every backup gets the honest
    proposal's digest, but the last one gets a forged value with it.
    Votes and the execution chain are digest-only, so only a backup
    checking that the digest binds the value can notice."""

    def handle_client_request(self, msg, src):
        if not self.is_leader or msg.request_id in self._assigned_requests:
            return
        seq = self.next_seq
        self.next_seq += 1
        self._assigned_requests[msg.request_id] = seq
        honest = PrePrepare(
            payload_bytes=msg.payload_bytes, view=self.view, seq=seq,
            digest=request_digest(msg.value, msg.record_type, msg.request_id),
            request_id=msg.request_id, value=msg.value,
            record_type=msg.record_type, meta=msg.meta,
        )
        forged = dataclasses.replace(honest, value=self.forged_value)
        *others, victim = [p for p in self.peers if p != self.node_id]
        self.broadcast(others, honest)
        self.send(victim, forged)
        self.handle_pre_prepare(honest, self.node_id)


class SameDigestEquivocator(EquivocatingLeader):
    engine_class = SameDigestEngine


def test_same_digest_equivocation_cannot_fork_honest_replicas():
    config = PBFTConfig(
        request_timeout_ms=20.0, view_change_timeout_ms=40.0,
        checkpoint_interval=2,
    )
    sim, replicas = make_group(
        overrides={0: SameDigestEquivocator},
        config=config,
        override_kwargs={"forged_value": "EVIL"},
    )
    commit_values(sim, replicas[1], ["GOOD", "ALSO-GOOD"])
    sim.run(until=sim.now + 100)
    honest = replicas[1:]
    # No honest replica executes the forged value: the victim drops the
    # pre-prepare whose digest does not bind its value, and rejoins by
    # catch-up once the seq-2 checkpoint proves it is behind.
    for replica in honest:
        assert "EVIL" not in [e.value for e in replica.executed_entries]
    assert_honest_agreement(honest, expected_length=2)
    assert len({replica.engine._exec_chain for replica in honest}) == 1


def test_tampering_voter_cannot_corrupt_agreement():
    sim, replicas = make_group(overrides={2: TamperingVoter})
    commit_values(sim, replicas[0], ["a", "b", "c"])
    sim.run(until=sim.now + 10)
    honest = [replicas[0], replicas[1], replicas[3]]
    assert_honest_agreement(honest, expected_length=3)


def test_bogus_proposer_rejected_by_verification_routines(obs):
    def verifier(value, record_type, meta):
        return value != ("illegal-transition",)

    sim, replicas = make_group(
        overrides={0: BogusProposer},
        config=FAST,
        verifier=verifier,
        obs=obs,
    )
    future = replicas[1].submit("legal-value")
    sim.run(until=500.0, max_events=20_000_000)
    honest = replicas[1:]
    for replica in honest:
        executed = [e.value for e in replica.executed_entries]
        assert ("illegal-transition",) not in executed
    assert obs.counter("pbft_verify_rejects_total", participant="DC").value > 0


def test_origin_rejects_a_request_committed_with_another_value():
    # ROBUSTNESS finding 10: a byzantine leader orders a value it was not
    # sent under the origin's request id. The honest replicas execute it
    # and reply with its digest; the origin must not report its own value
    # as committed.
    sim, replicas = make_group(
        overrides={0: BogusProposer}, override_kwargs={"bogus_value": "BOGUS"}
    )
    future = replicas[1].submit("GOOD")
    sim.run(until=200.0, max_events=20_000_000)
    for replica in replicas[1:]:
        assert [(e.seq, e.value) for e in replica.executed_entries] == [
            (1, "BOGUS")
        ]
    assert future.resolved
    assert isinstance(future.exception, VerificationFailed)
    assert "another value" in str(future.exception)
    assert replicas[1].engine._pending == {}


def test_f_byzantine_is_masked_but_f_plus_one_can_stall():
    # With two silent replicas out of four (beyond f=1), no quorum forms.
    sim, replicas = make_group(
        overrides={2: SilentReplica, 3: SilentReplica}, config=FAST
    )
    future = replicas[0].submit("never")
    sim.run(until=200.0, max_events=20_000_000)
    assert not future.resolved
    for replica in replicas[:2]:
        assert replica.executed_entries == []


class ReplyForgingEngine(PBFTEngine):
    """A leader that never orders a request and instead answers its
    origin with ``f + 1`` replies, each naming a different backup."""

    def handle_client_request(self, msg, src):
        for ghost in ("r2", "r3"):
            self.send(
                msg.request_id[0],
                Reply(
                    view=self.view, seq=99, digest="f" * 64,
                    request_id=msg.request_id, replica=ghost,
                ),
            )


class ReplyForger(PBFTReplica):
    engine_class = ReplyForgingEngine


def test_one_replica_cannot_forge_a_reply_quorum():
    sim, replicas = make_group(overrides={0: ReplyForger}, config=FAST)
    future = replicas[1].submit("real")
    sim.run(until=5.0)  # the forgeries arrive long before any timeout
    # f + 1 matching replies from one sender are one voice, not a quorum.
    assert not future.resolved
    assert all(replica.executed_entries == [] for replica in replicas)
    # The retry timer is still live: it deposes the forger, and the
    # future resolves with what the honest quorum really executed.
    entry = sim.run_until_resolved(future, max_events=20_000_000)
    assert entry.seq != 99
    for replica in replicas[1:]:
        assert (entry.seq, "real") in [
            (e.seq, e.value) for e in replica.executed_entries
        ]
