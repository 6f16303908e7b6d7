"""Each byzantine Blockplane-node variant is defeated by the documented
mechanism."""

from repro.core import BlockplaneConfig
from repro.core.byzantine import (
    CounterfeitingGateway,
    ForgingSigner,
    ImpersonatingSigner,
    PromiscuousSigner,
    SilentUnitMember,
)


def build_with(sim, node_class, node_id="A-2", config=None):
    from repro.core import BlockplaneDeployment
    from repro.sim.topology import symmetric_topology

    return BlockplaneDeployment(
        sim,
        symmetric_topology(["A", "B"], 20.0),
        config or BlockplaneConfig(f_independent=1),
        node_class_overrides={node_id: node_class},
    )


def roundtrip(sim, deployment, message="probe"):
    received = deployment.api("B").receive("A")
    sim.run_until_resolved(
        deployment.api("A").send(message, to="B"), max_events=20_000_000
    )
    sim.run(until=sim.now + 200, max_events=20_000_000)
    return received


def test_silent_member_does_not_block_the_pipeline(sim):
    deployment = build_with(sim, SilentUnitMember)
    received = roundtrip(sim, deployment)
    assert received.resolved and received.result() == "probe"


def test_promiscuous_signer_cannot_validate_forgeries_alone(sim):
    deployment = build_with(sim, PromiscuousSigner)
    # Normal traffic still works (extra signatures are harmless)...
    received = roundtrip(sim, deployment)
    assert received.resolved
    # ...but a forged record backed only by the promiscuous signer and
    # the forger itself cannot reach f+1 *log-backed* honesty: craft a
    # proof with the corrupt node and verify receivers reject it.
    from repro.core.messages import TransmissionMessage
    from repro.core.records import SealedTransmission, TransmissionRecord
    from repro.crypto.signatures import QuorumProof, sign

    record = TransmissionRecord(
        source="A",
        destination="B",
        message="forged",
        source_position=99,
        prev_position=None,
    )
    proof = QuorumProof.build(
        record.digest(),
        [sign(deployment.registry, "A-2", record.digest())],
    )
    for node in deployment.unit("B").nodes:
        node.handle_transmission_message(
            TransmissionMessage(sealed=SealedTransmission(record, proof)),
            "A-2",
        )
    sim.run(until=sim.now + 500, max_events=20_000_000)
    log_b = deployment.unit("B").gateway_node().local_log
    assert all(
        not (e.record_type == "received" and e.value.record.message == "forged")
        for e in log_b
    )


def test_forging_signer_contributes_nothing(sim):
    deployment = build_with(sim, ForgingSigner)
    received = roundtrip(sim, deployment)
    assert received.resolved and received.result() == "probe"
    # The delivered proof contains only verifiable signatures.
    log_b = deployment.unit("B").gateway_node().local_log
    sealed = next(e.value for e in log_b if e.record_type == "received")
    valid = sealed.proof.valid_signers(
        deployment.registry,
        allowed_signers=deployment.directory.unit_members("A"),
    )
    assert "A-2" not in valid
    assert len(valid) >= 2


def test_impersonating_signer_rejected(sim):
    deployment = build_with(sim, ImpersonatingSigner)
    received = roundtrip(sim, deployment)
    assert received.resolved
    log_b = deployment.unit("B").gateway_node().local_log
    sealed = next(e.value for e in log_b if e.record_type == "received")
    # The proof's valid signers are genuine unit members who really
    # signed; the impersonation never verifies.
    valid = sealed.proof.valid_signers(
        deployment.registry,
        allowed_signers=deployment.directory.unit_members("A"),
    )
    assert len(valid) >= 2


def test_counterfeiting_gateway_cannot_inject_messages(sim):
    deployment = build_with(sim, CounterfeitingGateway, node_id="A-1")
    corrupt = deployment.unit("A").nodes[1]
    corrupt.forge_and_ship("B", "minted-message")
    sim.run(until=2000.0, max_events=20_000_000)
    log_b = deployment.unit("B").gateway_node().local_log
    assert all(entry.record_type != "received" for entry in log_b)
    assert "A" not in deployment.unit("B").gateway_node().receptions
