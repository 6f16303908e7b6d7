"""Property-based tests for the canonical digest (hypothesis)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.digest import stable_digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import QuorumProof, sign, verify

# JSON-ish values that stable_digest must canonicalize.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.tuples(children, children),
    ),
    max_leaves=20,
)


@given(values)
@settings(max_examples=200, deadline=None)
def test_digest_is_deterministic(value):
    assert stable_digest(value) == stable_digest(value)


@given(st.dictionaries(st.text(max_size=8), scalars, min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_digest_ignores_dict_insertion_order(mapping):
    items = list(mapping.items())
    reversed_mapping = dict(reversed(items))
    assert stable_digest(mapping) == stable_digest(reversed_mapping)


@given(values, values)
@settings(max_examples=200, deadline=None)
def test_distinct_values_rarely_collide(a, b):
    if a != b:
        # SHA-256 collisions are out of reach; any equality here means a
        # canonicalization bug (two distinct values mapping to one form).
        da, db = stable_digest(a), stable_digest(b)
        if da == db:
            # Permit int/float equal values like 1 == 1.0? We digest
            # them differently on purpose, so even that must not collide.
            raise AssertionError(f"collision: {a!r} vs {b!r}")


@given(st.text(alphabet=string.ascii_letters, min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_any_registered_node_signature_verifies(node_id):
    registry = KeyRegistry(seed=5)
    registry.register(node_id)
    digest = stable_digest(("payload", node_id))
    assert verify(registry, sign(registry, node_id, digest), digest)


@given(
    st.lists(
        st.sampled_from(["n0", "n1", "n2", "n3", "n4", "n5"]),
        min_size=0,
        max_size=6,
        unique=True,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_proof_validity_iff_enough_distinct_signers(signers, required):
    registry = KeyRegistry(seed=6)
    registry.register_all(["n0", "n1", "n2", "n3", "n4", "n5"])
    digest = stable_digest("quorum-payload")
    proof = QuorumProof.build(
        digest, [sign(registry, signer, digest) for signer in signers]
    )
    assert proof.is_valid(registry, required) == (len(signers) >= required)
