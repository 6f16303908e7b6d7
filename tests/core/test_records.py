"""Unit tests for record dataclasses."""

from repro.core.records import (
    LogEntry,
    MirrorEntry,
    RECORD_COMMUNICATION,
    RECORD_LOG_COMMIT,
    SealedTransmission,
    TransmissionRecord,
)
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import QuorumProof, sign


def test_log_entry_destination_helper():
    entry = LogEntry(1, RECORD_COMMUNICATION, "m", meta={"destination": "B"})
    assert entry.destination == "B"
    plain = LogEntry(2, RECORD_LOG_COMMIT, "v")
    assert plain.destination is None


def test_transmission_record_digest_covers_chain_pointer():
    base = dict(
        source="A", destination="B", message="m", source_position=5
    )
    first = TransmissionRecord(prev_position=None, **base)
    second = TransmissionRecord(prev_position=3, **base)
    assert first.digest() != second.digest()


def test_transmission_record_digest_covers_all_identity_fields():
    record = TransmissionRecord("A", "B", "m", 1, None)
    tweaked = TransmissionRecord("A", "B", "m2", 1, None)
    assert record.digest() != tweaked.digest()
    moved = TransmissionRecord("A", "C", "m", 1, None)
    assert record.digest() != moved.digest()


def test_sealed_transmission_size_includes_proofs():
    registry = KeyRegistry()
    registry.register_all(["a", "b"])
    record = TransmissionRecord("A", "B", "m", 1, None, payload_bytes=100)
    proof = QuorumProof.build(
        record.digest(),
        [sign(registry, signer, record.digest()) for signer in ["a", "b"]],
    )
    sealed = SealedTransmission(record=record, proof=proof)
    assert sealed.size_bytes() == 100 + proof.size_bytes()
    with_geo = SealedTransmission(
        record=record, proof=proof, geo_proofs=(("V", proof),)
    )
    assert with_geo.size_bytes() == 100 + 2 * proof.size_bytes()


def test_mirror_entry_digest_identity():
    a = MirrorEntry("A", 1, RECORD_LOG_COMMIT, "v")
    same = MirrorEntry("A", 1, RECORD_LOG_COMMIT, "v")
    other_pos = MirrorEntry("A", 2, RECORD_LOG_COMMIT, "v")
    other_src = MirrorEntry("B", 1, RECORD_LOG_COMMIT, "v")
    assert a.digest() == same.digest()
    assert a.digest() != other_pos.digest()
    assert a.digest() != other_src.digest()
