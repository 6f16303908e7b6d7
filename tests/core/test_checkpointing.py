"""Signed checkpoints, committed log truncation, and snapshot recovery
at the Blockplane layer (the middleware overrides of the PBFT hooks)."""

import dataclasses

from repro.core import BlockplaneConfig
from repro.pbft.quorums import commit_quorum
from repro.crypto.signatures import sign
from repro.pbft.config import PBFTConfig
from repro.pbft.messages import CatchUpResponse, Checkpoint
from repro.pbft.engine import checkpoint_digest
from tests.conftest import build_single_dc


def checkpointed_config(interval=2):
    return BlockplaneConfig(
        f_independent=1,
        pbft=PBFTConfig(checkpoint_interval=interval, gc_executed_log=True),
    )


def commit_values(sim, api, count, prefix="v"):
    def work():
        for index in range(count):
            yield api.log_commit(f"{prefix}{index}")

    sim.run_until_resolved(sim.spawn(work()), max_events=10_000_000)


def checkpointed_deployment(sim, commits=8, interval=2):
    deployment = build_single_dc(sim, config=checkpointed_config(interval))
    commit_values(sim, deployment.api("DC"), commits)
    sim.run(until=sim.now + 500.0)
    return deployment


def test_stable_certificates_carry_verifying_signatures(sim):
    deployment = checkpointed_deployment(sim)
    unit = deployment.unit("DC")
    for node in unit.nodes:
        certificate = node.stable_certificate
        assert certificate is not None
        assert certificate.snapshot_digest != ""
        assert len(certificate.signatures) >= commit_quorum(
            node.bp_config.f_independent
        )
        # Transferable: any peer accepts it on signatures alone.
        for peer in unit.nodes:
            assert peer.certificate_valid(certificate)


def test_certificate_without_proof_quorum_is_rejected(sim):
    deployment = checkpointed_deployment(sim)
    node = deployment.unit("DC").nodes[0]
    certificate = node.stable_certificate
    stripped = dataclasses.replace(
        certificate,
        signatures=certificate.signatures[: node.bp_config.proof_size - 1],
    )
    assert not node.certificate_valid(stripped)
    forged = dataclasses.replace(certificate, snapshot_digest="forged")
    assert not node.certificate_valid(forged)


def test_checkpoint_votes_verify_signer_and_content(sim):
    deployment = build_single_dc(sim, config=checkpointed_config())
    nodes = deployment.unit("DC").nodes
    voter, judge, other = nodes[0], nodes[1], nodes[2]
    digest = checkpoint_digest(2, "state", "snap")
    vote = Checkpoint(
        seq=2,
        state_digest="state",
        snapshot_digest="snap",
        signature=sign(voter.directory.registry, voter.node_id, digest),
        replica=voter.node_id,
    )
    assert judge.checkpoint_vote_valid(vote)
    # Spoofed voter, tampered content, and missing signature all fail.
    assert not judge.checkpoint_vote_valid(
        dataclasses.replace(vote, replica=other.node_id)
    )
    assert not judge.checkpoint_vote_valid(
        dataclasses.replace(vote, state_digest="other")
    )
    assert not judge.checkpoint_vote_valid(
        dataclasses.replace(vote, signature=None)
    )


def test_committed_truncation_converges_across_the_unit(sim):
    deployment = checkpointed_deployment(sim, commits=12)
    nodes = deployment.unit("DC").nodes
    bases = {node.local_log.base_position for node in nodes}
    assert len(bases) == 1, "honest replicas disagree on the folded prefix"
    assert bases.pop() > 1
    chains = {node.local_log.entry_chain for node in nodes}
    assert len(chains) == 1


def test_truncation_bound_is_revalidated_against_own_certificate(sim):
    deployment = checkpointed_deployment(sim, commits=12)
    node = deployment.unit("DC").nodes[0]
    certified_base = node.engine._stable_snapshot_payload.base_position
    meta = {"checkpoint_seq": node.stable_checkpoint}
    assert node._verify_truncate(certified_base, meta) is True
    # A bound past what our own certificate covers is byzantine.
    assert node._verify_truncate(certified_base + 100, meta) is False
    # A certificate we have not reached yet defers the verdict.
    assert (
        node._verify_truncate(
            1, {"checkpoint_seq": node.stable_checkpoint + 2}
        )
        is None
    )
    assert node._verify_truncate("x", meta) is False
    assert node._verify_truncate(certified_base, {}) is False


def test_replica_past_peer_gc_recovers_via_snapshot(sim):
    deployment = build_single_dc(sim, config=checkpointed_config())
    unit = deployment.unit("DC")
    api = deployment.api("DC")
    lagger = unit.nodes[3]
    lagger.crash()
    commit_values(sim, api, 10)
    sim.run(until=sim.now + 500.0)
    reference = unit.nodes[0]
    assert reference.engine._executed_gc_seq > 0, "peers retained the full log"

    lagger.recover()
    sim.run(until=sim.now + 1_000.0)

    assert lagger.snapshot_installs >= 1
    assert lagger.last_executed == reference.last_executed
    assert lagger.local_log.entry_chain == reference.local_log.entry_chain
    assert len(lagger.local_log) == len(reference.local_log)
    # And it participates again: a further commit reaches it.
    commit_values(sim, api, 2, prefix="w")
    sim.run(until=sim.now + 200.0)
    assert lagger.last_executed == reference.last_executed


def test_tampered_snapshot_offer_is_rejected(sim):
    deployment = build_single_dc(sim, config=checkpointed_config())
    unit = deployment.unit("DC")
    api = deployment.api("DC")
    victim = unit.nodes[3]
    victim.crash()
    commit_values(sim, api, 10)
    sim.run(until=sim.now + 500.0)
    honest = unit.nodes[0]
    certificate = honest.stable_certificate
    payload = honest.engine._stable_snapshot_payload
    victim.crashed = False

    tampered = dataclasses.replace(payload, entry_chain="forged-chain")
    victim.engine.handle_catch_up_response(
        CatchUpResponse(
            certificate=certificate,
            snapshot=tampered,
            entries=[],
            replica=honest.node_id,
        ),
        honest.node_id,
    )
    assert victim.engine.snapshot_offers_rejected == 1
    assert victim.snapshot_installs == 0
    assert victim.last_executed == 0

    # The genuine payload from the same certificate installs fine.
    victim.engine.handle_catch_up_response(
        CatchUpResponse(
            certificate=certificate,
            snapshot=payload,
            entries=[],
            replica=honest.node_id,
        ),
        honest.node_id,
    )
    assert victim.snapshot_installs == 1
    assert victim.last_executed == certificate.seq
