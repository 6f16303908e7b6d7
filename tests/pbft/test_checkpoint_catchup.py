"""PBFT checkpoint and catch-up (recovery) tests."""

from repro.pbft.config import PBFTConfig
from tests.pbft.helpers import assert_honest_agreement, commit_values, make_group


def test_checkpoint_truncates_slot_log():
    config = PBFTConfig(checkpoint_interval=4)
    sim, replicas = make_group(config=config)
    commit_values(sim, replicas[0], [f"v{i}" for i in range(10)])
    sim.run(until=sim.now + 20)
    for replica in replicas:
        assert replica.stable_checkpoint >= 4
        assert all(seq > replica.stable_checkpoint for seq in replica.slots)


def test_checkpoint_preserves_executed_entries():
    config = PBFTConfig(checkpoint_interval=2)
    sim, replicas = make_group(config=config)
    commit_values(sim, replicas[0], [f"v{i}" for i in range(6)])
    sim.run(until=sim.now + 20)
    assert_honest_agreement(replicas, expected_length=6)


def test_checkpoint_traced(obs):
    config = PBFTConfig(checkpoint_interval=2)
    sim, replicas = make_group(config=config, obs=obs)
    commit_values(sim, replicas[0], ["a", "b"])
    sim.run(until=sim.now + 20)
    assert len([e for e in obs.journal if e.kind == "pbft.stable_checkpoint"]) >= 1


def test_crashed_replica_catches_up_on_recovery():
    sim, replicas = make_group()
    replicas[3].crash()
    commit_values(sim, replicas[0], [f"v{i}" for i in range(5)])
    replicas[3].recover()
    sim.run(until=sim.now + 100)
    assert replicas[3].last_executed == 5
    assert_honest_agreement(replicas, expected_length=5)


def test_replayed_replica_still_votes_matching_checkpoints():
    config = PBFTConfig(checkpoint_interval=4)
    sim, replicas = make_group(config=config)
    replicas[3].crash()
    commit_values(sim, replicas[0], ["a", "b", "c"])
    replicas[3].recover()
    sim.run(until=sim.now + 100)
    assert replicas[3].last_executed == 3
    # Entry replay chains the same digests normal execution does.
    assert len({replica.engine._exec_chain for replica in replicas}) == 1
    # With r2 down the seq-4 checkpoint needs all of r0, r1 and the
    # replayed r3: it stabilizes only if r3's vote matches theirs.
    replicas[2].crash()
    commit_values(sim, replicas[0], ["d"])
    sim.run(until=sim.now + 20)
    for replica in (replicas[0], replicas[1], replicas[3]):
        assert replica.stable_checkpoint == 4


def test_catch_up_applies_in_order():
    sim, replicas = make_group()
    replicas[3].crash()
    commit_values(sim, replicas[0], [f"v{i}" for i in range(8)])
    replicas[3].recover()
    sim.run(until=sim.now + 100)
    values = [e.value for e in replicas[3].executed_entries]
    assert values == [f"v{i}" for i in range(8)]


def test_catch_up_requires_f_plus_one_matching_peers():
    # A single lying peer cannot poison catch-up: responses need f+1
    # agreement per sequence number.
    from repro.pbft.messages import CatchUpResponse, CommittedEntry

    sim, replicas = make_group()
    commit_values(sim, replicas[0], ["real"])
    lagger = replicas[3]
    lagger.crash()
    lagger.recover()
    # Forge a response claiming a different value for seq 1 from one
    # (byzantine) peer. It alone must not be applied over the truth.
    forged = CatchUpResponse(
        entries=[
            CommittedEntry(seq=2, view=0, value="forged", record_type="x")
        ],
        replica="r1",
    )
    lagger.engine.handle_catch_up_response(forged, "r1")
    sim.run(until=sim.now + 100)
    values = [e.value for e in lagger.executed_entries]
    assert "forged" not in values


def test_recovery_after_more_commits_resumes_participation():
    sim, replicas = make_group()
    commit_values(sim, replicas[0], ["a"])
    replicas[2].crash()
    commit_values(sim, replicas[0], ["b", "c"])
    replicas[2].recover()
    sim.run(until=sim.now + 100)
    assert replicas[2].last_executed == 3
    # The recovered replica contributes to new commits again.
    commit_values(sim, replicas[0], ["d"])
    sim.run(until=sim.now + 20)
    assert_honest_agreement(replicas, expected_length=4)
