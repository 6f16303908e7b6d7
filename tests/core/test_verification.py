"""Unit tests for the built-in receive verification routine — the one
the voting path runs, ``BlockplaneNode.verify(sealed, "received", meta)``
— and its unit-proof test ``BlockplaneNode.proof_valid``."""

from repro.core import BlockplaneConfig
from repro.core.records import (
    RECORD_COMMUNICATION,
    RECORD_RECEIVED,
    LogEntry,
    MirrorEntry,
    SealedTransmission,
    TransmissionRecord,
)
from repro.crypto.signatures import QuorumProof, sign
from repro.pbft.messages import ClientRequest

from tests.conftest import apply_committed, build_four_dc, build_pair

META = {"source": "A"}


def proof_over(registry, digest, signers):
    return QuorumProof.build(
        digest, [sign(registry, signer, digest) for signer in signers]
    )


def make_sealed(
    registry, position, prev, signers=("A-0", "A-1"), message="m",
    source="A", destination="B", geo_proofs=(),
):
    record = TransmissionRecord(
        source=source,
        destination=destination,
        message=message,
        source_position=position,
        prev_position=prev,
    )
    return SealedTransmission(
        record=record,
        proof=proof_over(registry, record.digest(), signers),
        geo_proofs=tuple(geo_proofs),
    )


def receiver(sim):
    deployment = build_pair(sim)
    return deployment.unit("B").nodes[1], deployment.registry


def test_valid_first_transmission_passes(sim):
    node, registry = receiver(sim)
    assert node.verify(make_sealed(registry, 1, None), RECORD_RECEIVED, META)


def test_wrong_destination_rejected(sim):
    node, registry = receiver(sim)
    sealed = make_sealed(registry, 1, None, destination="X")
    assert node.verify(sealed, RECORD_RECEIVED, META) is False


def test_insufficient_signatures_rejected(sim):
    node, registry = receiver(sim)
    sealed = make_sealed(registry, 1, None, signers=("A-0",))
    assert node.verify(sealed, RECORD_RECEIVED, META) is False


def test_signatures_from_outside_source_unit_do_not_count(sim):
    node, registry = receiver(sim)
    sealed = make_sealed(registry, 1, None, signers=("A-0", "B-0"))
    assert node.verify(sealed, RECORD_RECEIVED, META) is False


def test_proof_over_different_record_rejected(sim):
    node, registry = receiver(sim)
    good = make_sealed(registry, 1, None)
    other = make_sealed(registry, 2, 1)
    mismatched = SealedTransmission(record=good.record, proof=other.proof)
    assert node.verify(mismatched, RECORD_RECEIVED, META) is False


def test_unknown_source_participant_rejected_without_raising(sim):
    node, registry = receiver(sim)
    registry.register_all(["Z-0", "Z-1"])
    sealed = make_sealed(registry, 1, None, signers=("Z-0", "Z-1"), source="Z")
    assert node.verify(sealed, RECORD_RECEIVED, {"source": "Z"}) is False
    assert node.proof_valid(sealed.proof, sealed.record.digest(), "Z") is False


def test_committed_duplicate_accepted_idempotently(sim):
    # A racing re-submission of a committed transmission must never
    # stall the slot it landed in: the vote passes, apply deduplicates.
    deployment = build_pair(sim)
    sim.run_until_resolved(
        deployment.api("A").send("m0", to="B"), max_events=20_000_000
    )
    assert sim.run_until_resolved(
        deployment.api("B").receive("A"), max_events=20_000_000
    ) == "m0"
    sim.run(until=sim.now + 100)
    node = deployment.unit("B").nodes[1]
    (sealed,) = [
        entry.value for entry in node.local_log
        if entry.record_type == RECORD_RECEIVED
    ]
    assert node.verify(sealed, RECORD_RECEIVED, META) is True
    assert node.has_received("A", sealed.record.source_position)


def test_stale_position_voted_differently_rejected(sim):
    node, registry = receiver(sim)
    assert node.verify(make_sealed(registry, 1, None), RECORD_RECEIVED, META)
    conflicting = make_sealed(registry, 1, None, message="other")
    assert node.verify(conflicting, RECORD_RECEIVED, META) is False


def test_gap_defers_while_predecessor_in_flight(sim):
    node, registry = receiver(sim)
    apply_committed(node, RECORD_RECEIVED, make_sealed(registry, 1, None))
    # Position 3 claims prev=2, but only 1 is committed: message 2 is
    # still in flight (or withheld), so the vote is deferred.
    sealed = make_sealed(registry, 3, 2)
    assert node.verify(sealed, RECORD_RECEIVED, META) is None


def test_chain_successor_accepted(sim):
    node, registry = receiver(sim)
    apply_committed(node, RECORD_RECEIVED, make_sealed(registry, 1, None))
    assert node.verify(make_sealed(registry, 4, 1), RECORD_RECEIVED, META)


def test_forged_proof_refused_by_pre_validate(sim):
    # The leader refuses a reception its replicas could never verify
    # before it burns a sequence number (or reserves the key) on it.
    node, registry = receiver(sim)
    forged = make_sealed(registry, 1, None, signers=("B-2",))
    request = ClientRequest(
        request_id=("B-2", 1), value=forged, record_type=RECORD_RECEIVED,
        meta=META,
    )
    assert node.pre_validate(request) == "invalid transmission proof"
    assert "A" not in node.receptions  # a forged proof allocates nothing
    honest = ClientRequest(
        request_id=("B-3", 1), value=make_sealed(registry, 1, None),
        record_type=RECORD_RECEIVED, meta=META,
    )
    assert node.pre_validate(honest) is None


# ----------------------------------------------------------------------
# Geo proofs (fg > 0): source C, destination V, mirrors O and I.
# ----------------------------------------------------------------------
def geo_receiver(sim, f_geo=1):
    deployment = build_four_dc(
        sim, config=BlockplaneConfig(f_independent=1, f_geo=f_geo)
    )
    return deployment.unit("V").nodes[1], deployment.registry


def mirror_digest(position, message="m"):
    """The digest C's gateway gathers mirror proofs over for the
    communication entry it ships (what the receiver must reconstruct)."""
    entry = LogEntry(position, RECORD_COMMUNICATION, message, {"destination": "V"})
    return MirrorEntry.of("C", entry).digest()


def geo_sealed(registry, geo_proofs):
    return make_sealed(
        registry, 1, None, signers=("C-0", "C-1"),
        source="C", destination="V", geo_proofs=geo_proofs,
    )


def test_geo_proofs_required_when_enabled(sim):
    node, registry = geo_receiver(sim)
    sealed = geo_sealed(registry, ())
    assert node.verify(sealed, RECORD_RECEIVED, {"source": "C"}) is False


def test_geo_proofs_validated(sim):
    node, registry = geo_receiver(sim)
    geo = ("O", proof_over(registry, mirror_digest(1), ["O-0", "O-1"]))
    sealed = geo_sealed(registry, (geo,))
    assert node.verify(sealed, RECORD_RECEIVED, {"source": "C"}) is True


def test_geo_proof_over_transmission_digest_rejected(sim):
    node, registry = geo_receiver(sim)
    record_digest = geo_sealed(registry, ()).record.digest()
    geo = ("O", proof_over(registry, record_digest, ["O-0", "O-1"]))
    sealed = geo_sealed(registry, (geo,))
    assert node.verify(sealed, RECORD_RECEIVED, {"source": "C"}) is False


def test_geo_proof_from_source_itself_does_not_count(sim):
    node, registry = geo_receiver(sim)
    geo = ("C", proof_over(registry, mirror_digest(1), ["C-0", "C-1"]))
    sealed = geo_sealed(registry, (geo,))
    assert node.verify(sealed, RECORD_RECEIVED, {"source": "C"}) is False


def test_repeated_geo_participant_counts_once(sim):
    node, registry = geo_receiver(sim, f_geo=2)
    from_o = ("O", proof_over(registry, mirror_digest(1), ["O-0", "O-1"]))
    from_i = ("I", proof_over(registry, mirror_digest(1), ["I-0", "I-1"]))
    twice = geo_sealed(registry, (from_o, from_o))
    assert node.verify(twice, RECORD_RECEIVED, {"source": "C"}) is False
    distinct = geo_sealed(registry, (from_o, from_i))
    assert node.verify(distinct, RECORD_RECEIVED, {"source": "C"}) is True
