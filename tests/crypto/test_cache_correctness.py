"""Byzantine cache-correctness: the caches must be semantically invisible.

A cache that ever turns a forged signature valid, or keeps a verdict
across a key-set change, silently voids every quorum proof in the
system. These tests pin the adversarial cases:

* a forged MAC over an honest ``(signer, digest)`` pair must verify
  False even when the honest triple's True verdict is already cached;
* registering a key in the :class:`KeyRegistry` must invalidate prior
  cached verdicts (an unknown signer's failure is not served after);
* ``cached_digest`` keyed by identity must agree with ``stable_digest``
  for equal-but-distinct objects — a hit can never change a digest;
* ``formula_digest`` keyed by content must never let two field tuples
  that compare equal but canonicalize differently share an entry.

The uncached references are ``stable_digest`` and ``_verify_uncached``;
every memoized verdict below is also compared against the latter.
"""

import enum

import pytest

from repro.core.records import TransmissionRecord
from repro.crypto import digest as digest_module
from repro.crypto.caches import IdentityLRU
from repro.crypto.digest import (
    FORMULA_MEMO_SIZE,
    cached_digest,
    clear_digest_cache,
    digest_cache_stats,
    formula_digest,
    stable_digest,
)
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import (
    QuorumProof,
    Signature,
    _verify_uncached,
    sign,
    verify as _memoized_verify,
)


@pytest.fixture(autouse=True)
def _empty_digest_memo():
    clear_digest_cache()


def verify(registry: KeyRegistry, signature: Signature, digest: str) -> bool:
    """The memoized verdict, checked against the uncached reference."""
    verdict = _memoized_verify(registry, signature, digest)
    assert verdict == (
        signature.digest == digest
        and _verify_uncached(registry, signature.signer, digest, signature.mac)
    )
    return verdict


def _registry(nodes=("A-0", "A-1", "A-2", "A-3")) -> KeyRegistry:
    registry = KeyRegistry(seed=11)
    registry.register_all(nodes)
    return registry


class TestForgedSignatureNeverHits:
    def test_forged_mac_fails_after_honest_hit(self):
        registry = _registry()
        digest = stable_digest(("payload", 1))
        honest = sign(registry, "A-0", digest)
        # Prime the cache with the honest verdict — twice, so the second
        # call is a guaranteed cache hit.
        assert verify(registry, honest, digest)
        assert verify(registry, honest, digest)
        forged = Signature(signer="A-0", digest=digest, mac="f" * 64)
        assert verify(registry, forged, digest) is False
        # And the forgery's False verdict must not poison the honest one.
        assert verify(registry, honest, digest) is True

    def test_signer_substitution_fails(self):
        registry = _registry()
        digest = stable_digest(("payload", 2))
        honest = sign(registry, "A-0", digest)
        assert verify(registry, honest, digest)
        # A byzantine node replays A-0's MAC under its own identity.
        stolen = Signature(signer="A-1", digest=digest, mac=honest.mac)
        assert verify(registry, stolen, digest) is False

    def test_digest_mismatch_fails_regardless_of_cache(self):
        registry = _registry()
        digest = stable_digest(("payload", 3))
        other = stable_digest(("payload", 4))
        honest = sign(registry, "A-0", digest)
        assert verify(registry, honest, digest)
        # Same signature object presented against a different digest.
        assert verify(registry, honest, other) is False

    def test_forged_proof_never_reaches_quorum(self):
        registry = _registry()
        record = TransmissionRecord(
            source="A", destination="B", message=("m", 1),
            source_position=1, prev_position=None,
        )
        digest = record.digest()
        honest = [sign(registry, node, digest) for node in ("A-0", "A-1")]
        # Cache the honest verdicts through a valid proof check.
        assert QuorumProof.build(digest, honest).is_valid(registry, 2)
        forged = [
            Signature(signer="A-0", digest=digest, mac="0" * 64),
            Signature(signer="A-1", digest=digest, mac="1" * 64),
        ]
        assert not QuorumProof.build(digest, forged).is_valid(registry, 2)
        # Mixed: one honest, one forged — below the fi+1 quorum.
        mixed = [honest[0], forged[1]]
        assert not QuorumProof.build(digest, mixed).is_valid(registry, 2)


class TestRegistryMutationInvalidates:
    def test_registering_new_node_keeps_verdicts_correct(self):
        registry = _registry(("A-0",))
        digest = stable_digest(("payload", 7))
        signature = sign(registry, "A-0", digest)
        assert verify(registry, signature, digest)
        registry.register("B-0")
        assert verify(registry, signature, digest) is True
        assert verify(registry, sign(registry, "B-0", digest), digest)

    def test_negative_verdicts_not_served_across_registration(self):
        """A signature that failed because the signer was unknown must
        verify once the signer is registered (negative results are not
        cached across registry changes)."""
        registry = _registry(("A-0",))
        digest = stable_digest(("payload", 8))
        ghost = Signature(signer="B-0", digest=digest, mac="a" * 64)
        assert verify(registry, ghost, digest) is False
        secret = registry.register("B-0")
        import hashlib
        import hmac as hmac_mod

        mac = hmac_mod.new(secret, digest.encode(), hashlib.sha256).hexdigest()
        real = Signature(signer="B-0", digest=digest, mac=mac)
        assert verify(registry, real, digest) is True


class TestDigestMemoAgreement:
    def test_equal_but_distinct_objects_agree_with_stable_digest(self):
        # Built dynamically so the compiler cannot intern one object.
        make = lambda: ("x", tuple(range(1, 4)), "tail")
        value_a, value_b = make(), make()
        assert value_a == value_b and value_a is not value_b
        assert cached_digest(value_a) == stable_digest(value_a)
        # A cached hit for value_a must not leak into distinct value_b.
        assert cached_digest(value_b) == stable_digest(value_b)
        assert cached_digest(value_a) == cached_digest(value_b)

    def test_equal_but_distinct_records_agree(self):
        make = lambda: TransmissionRecord(
            source="A", destination="B", message=("m", (1, 2)),
            source_position=3, prev_position=2,
        )
        record_a, record_b = make(), make()
        assert record_a is not record_b
        assert record_a.digest() == record_b.digest()

    def test_hash_equal_values_digest_differently(self):
        """1 == True == 1.0 hash-equal but canonicalize differently —
        the memo must never conflate them (identity keying)."""
        assert cached_digest(1) != cached_digest(True)
        assert cached_digest((1,)) == stable_digest((1,))
        assert cached_digest((True,)) == stable_digest((True,))
        assert cached_digest((1,)) != cached_digest((True,))

    def test_mutable_values_bypass_the_memo(self):
        clear_digest_cache()
        value = {"k": [1, 2]}
        before = digest_cache_stats()
        first = cached_digest(value)
        value["k"].append(3)
        second = cached_digest(value)
        after = digest_cache_stats()
        assert first != second  # recomputed, not served stale
        assert second == stable_digest(value)
        assert after["hits"] == before["hits"]  # never cached

    def test_identity_lru_eviction_keeps_strong_refs(self):
        lru = IdentityLRU(maxsize=2)
        a, b, c = ("a",), ("b",), ("c",)
        lru.store(a, "da")
        lru.store(b, "db")
        assert lru.lookup(a) == "da"
        lru.store(c, "dc")  # evicts b (least recently used)
        assert lru.lookup(b) is None
        assert lru.lookup(a) == "da"
        assert lru.lookup(c) == "dc"


class _Kind(enum.IntEnum):
    ONE = 1


def _formula_memo_size() -> int:
    return len(digest_module._FORMULA_MEMO)


class TestFormulaMemoAgreement:
    D, T = "a" * 64, "log-commit"

    @pytest.mark.parametrize("order", [(1, True), (True, 1)])
    def test_int_and_bool_request_ids_never_share_an_entry(self, order):
        digests = []
        for number in order:
            fields = (self.D, self.T, ("c", number))
            digests.append(formula_digest(fields))
            assert digests[-1] == stable_digest(fields)
        assert digests[0] != digests[1]

    def test_meta_dict_and_pairs_tuple_never_share_a_key(self):
        as_dict = (1, self.T, self.D, {"destination": "B"})
        as_pairs = (1, self.T, self.D, (("destination", "B"),))
        for first, second in ((as_dict, as_pairs), (as_pairs, as_dict)):
            clear_digest_cache()
            assert formula_digest(first) == stable_digest(first)
            assert formula_digest(second) == stable_digest(second)
            assert _formula_memo_size() == 2
        assert stable_digest(as_dict) != stable_digest(as_pairs)

    @pytest.mark.parametrize(
        "leaf",
        [0.0, -0.0, 1.5, _Kind.ONE, {1: "x"}, {"k": 1.0}, {"k": ("n",)},
         ("nested", {"destination": "B"}), b"bytes", [1]],
        ids=repr,
    )
    def test_unkeyable_leaves_bypass_the_memo(self, leaf):
        fields = (self.D, self.T, leaf)
        before = digest_cache_stats()
        for _ in range(2):
            assert formula_digest(fields) == stable_digest(fields)
        after = digest_cache_stats()
        assert _formula_memo_size() == 0
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"] + 2

    def test_every_hit_equals_stable_digest(self):
        fields_list = [
            (self.D, self.T, ("c", index % 7)) for index in range(50)
        ] + [
            (index % 5, self.T, self.D, {"source": "A", "checkpoint_seq": 3})
            for index in range(50)
        ] + [(None, (("B", 1), ("C", None)), -3, "")] * 3
        before = digest_cache_stats()
        for fields in fields_list:
            # Rebuilt per call: hits come from content, not identity.
            rebuilt = tuple(
                dict(f) if f.__class__ is dict else f for f in fields
            )
            assert formula_digest(rebuilt) == stable_digest(fields)
        after = digest_cache_stats()
        assert after["misses"] - before["misses"] == 7 + 5 + 1
        assert after["hits"] - before["hits"] == len(fields_list) - 13

    def test_memo_stays_bounded(self):
        for index in range(50_000):
            formula_digest((self.D, self.T, ("c", index)))
            assert _formula_memo_size() <= FORMULA_MEMO_SIZE
        assert _formula_memo_size() == FORMULA_MEMO_SIZE
        newest = (self.D, self.T, ("c", 49_999))
        assert formula_digest(newest) == stable_digest(newest)
