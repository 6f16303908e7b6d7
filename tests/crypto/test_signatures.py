"""Unit tests for signatures, the key registry, and quorum proofs."""

import pytest

from repro.crypto.digest import stable_digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import (
    QuorumProof,
    Signature,
    sign,
    verify,
)
from repro.errors import CryptoError


@pytest.fixture
def registry():
    reg = KeyRegistry(seed=1)
    reg.register_all(["n0", "n1", "n2", "n3"])
    return reg


def test_sign_verify_roundtrip(registry):
    digest = stable_digest("payload")
    signature = sign(registry, "n0", digest)
    assert verify(registry, signature, digest)


def test_wrong_digest_fails(registry):
    signature = sign(registry, "n0", stable_digest("a"))
    assert not verify(registry, signature, stable_digest("b"))


def test_forged_mac_fails(registry):
    digest = stable_digest("a")
    forged = Signature(signer="n0", digest=digest, mac="00" * 32)
    assert not verify(registry, forged, digest)


def test_unknown_signer_fails_softly(registry):
    digest = stable_digest("a")
    claim = Signature(signer="ghost", digest=digest, mac="00" * 32)
    assert not verify(registry, claim, digest)


def test_impersonation_fails(registry):
    # n1 signing but claiming to be n0: the MAC is keyed by n1's secret,
    # so verification under n0's key fails.
    digest = stable_digest("a")
    real = sign(registry, "n1", digest)
    impersonated = Signature(signer="n0", digest=digest, mac=real.mac)
    assert not verify(registry, impersonated, digest)


def test_registry_is_deterministic():
    a = KeyRegistry(seed=9)
    b = KeyRegistry(seed=9)
    assert a.register("x") == b.register("x")
    assert KeyRegistry(seed=10).register("x") != a.register("x")


def test_registry_unknown_key_raises():
    with pytest.raises(CryptoError):
        KeyRegistry().secret_for("nope")


def test_registry_contains_and_listing(registry):
    assert "n0" in registry
    assert "ghost" not in registry


def test_quorum_proof_accepts_enough_signatures(registry):
    digest = stable_digest("value")
    proof = QuorumProof.build(
        digest, [sign(registry, signer, digest) for signer in ["n0", "n1"]]
    )
    assert proof.is_valid(registry, 2)
    assert not proof.is_valid(registry, 3)


def test_quorum_proof_counts_distinct_signers_only(registry):
    digest = stable_digest("value")
    sig = sign(registry, "n0", digest)
    proof = QuorumProof.build(digest, [sig, sig, sig])
    assert not proof.is_valid(registry, 2)


def test_quorum_proof_respects_allowed_signers(registry):
    digest = stable_digest("value")
    proof = QuorumProof.build(
        digest, [sign(registry, signer, digest) for signer in ["n0", "n1"]]
    )
    # n1 is outside the allowed set (e.g. not a member of the claimed
    # source unit), so only one signature counts.
    assert not proof.is_valid(registry, 2, allowed_signers=["n0", "n2"])


def test_quorum_proof_ignores_invalid_signatures(registry):
    digest = stable_digest("value")
    good = sign(registry, "n0", digest)
    bad = Signature(signer="n1", digest=digest, mac="11" * 32)
    proof = QuorumProof.build(digest, [good, bad])
    assert proof.is_valid(registry, 1)
    assert not proof.is_valid(registry, 2)


def test_proof_over_wrong_digest_invalid(registry):
    digest = stable_digest("value")
    other = stable_digest("other")
    proof = QuorumProof.build(
        other, [sign(registry, signer, digest) for signer in ["n0", "n1"]]
    )
    # signatures cover `digest` but the proof claims `other`
    assert not proof.is_valid(registry, 1)


def test_sizes_are_positive(registry):
    digest = stable_digest("v")
    signature = sign(registry, "n0", digest)
    proof = QuorumProof.build(digest, [signature])
    assert signature.size_bytes() > 0
    assert proof.size_bytes() == signature.size_bytes()
