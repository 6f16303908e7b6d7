"""Property-based tests for the generated wire codec (hypothesis).

Instance strategies are derived from the codec's own field-spec trees
(:func:`repro.core.codec._generate` compiles the class and returns
them), so every class in the MANIFEST is generated and exercised with
arbitrary well-typed payloads — the properties cannot drift out of
sync with the manifest when a wire class gains a field, and a class
the generator cannot handle fails here rather than at import.

Three invariants:

* ``decode_wire(encode_wire(x)) == x`` for every wire class (the
  tuple/list distinction and nested wire objects in ``Any`` payloads
  included), with the digest unchanged;
* the generated canonical-digest expanders and immutability verdicts
  agree with the reflective walks in :mod:`repro.crypto.digest` (the
  oracle: the same functions with the generated registries emptied);
* whatever bytes arrive, a decoder returns an object or raises
  :class:`~repro.errors.ProtocolError` — nothing else.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.codec import (
    MANIFEST,
    decode_wire,
    decode_wire_bytes,
    encode_wire,
    encode_wire_bytes,
)
from repro.crypto import digest
from repro.crypto.digest import stable_digest
from repro.crypto.signatures import Signature
from repro.errors import ProtocolError

_KEY_TEXT = st.text(alphabet="abcdef", max_size=4)

#: Trees the ``Any``-value walkers accept: scalars, bytes, a nested wire
#: object, and lists/tuples/dicts of those.
_ANY_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**53), max_value=2**53),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=12),
        st.binary(max_size=8),
        st.builds(Signature, st.text(max_size=4), _KEY_TEXT, _KEY_TEXT),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEY_TEXT, children, max_size=3),
    ),
    max_leaves=8,
)


class _StrategyBuilder:
    """Builds per-class instance strategies from codec spec trees."""

    def __init__(self) -> None:
        self._classes: dict = {}

    def for_class(self, cls: type) -> st.SearchStrategy:
        strategy = self._classes.get(cls)
        if strategy is None:
            # Deferred so mutually referencing classes cannot recurse
            # during construction.
            strategy = st.deferred(lambda cls=cls: self._build(cls))
            self._classes[cls] = strategy
        return strategy

    def _build(self, cls: type) -> st.SearchStrategy:
        fields, specs = codec._generate(cls)
        return st.builds(
            cls,
            **{
                fname: self.for_spec(spec)
                for fname, spec in zip(fields, specs)
            },
        )

    def for_spec(self, spec) -> st.SearchStrategy:
        kind = spec[0]
        if kind == "str":
            return st.text(max_size=12)
        if kind == "int":
            return st.integers(min_value=-(2**53), max_value=2**53)
        if kind == "float":
            return st.floats(allow_nan=False, allow_infinity=False)
        if kind == "bool":
            return st.booleans()
        if kind == "opt":
            return st.none() | self.for_spec(spec[1])
        if kind == "vtuple":
            return st.lists(self.for_spec(spec[1]), max_size=3).map(tuple)
        if kind == "ftuple":
            return st.tuples(*(self.for_spec(s) for s in spec[1]))
        if kind == "list":
            return st.lists(self.for_spec(spec[1]), max_size=3)
        if kind == "dicts":
            return st.dictionaries(_KEY_TEXT, self.for_spec(spec[1]), max_size=3)
        if kind == "dicti":
            return st.dictionaries(
                st.integers(min_value=-100, max_value=100),
                self.for_spec(spec[1]),
                max_size=3,
            )
        if kind == "cls":
            return self.for_class(spec[1])
        if kind == "any":
            return _ANY_VALUES
        raise AssertionError(f"unhandled codec spec {spec!r}")


_INSTANCES = _StrategyBuilder()

_ALL_CLASSES = sorted(MANIFEST, key=lambda cls: cls.__name__)

_per_class = pytest.mark.parametrize(
    "cls", _ALL_CLASSES, ids=[cls.__name__ for cls in _ALL_CLASSES]
)


@_per_class
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_round_trip_is_identity(cls, data):
    """encode→decode reproduces the instance exactly, per wire class."""
    obj = data.draw(_INSTANCES.for_class(cls))
    assert decode_wire(encode_wire(obj)) == obj


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_through_bytes(data):
    cls = data.draw(st.sampled_from(_ALL_CLASSES))
    obj = data.draw(_INSTANCES.for_class(cls))
    frame = encode_wire_bytes(obj)
    json.loads(frame)  # the wire text is plain JSON
    decoded = decode_wire_bytes(frame)
    assert decoded == obj
    assert stable_digest(decoded) == stable_digest(obj)


@_per_class
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_generated_digest_code_matches_reflective_walk(cls, data):
    """With the generated registries emptied, ``stable_digest`` and
    ``_deeply_immutable`` run the reflective dataclass walks — the
    oracle. The generated expanders must give byte-identical digests and
    the generated verdicts the same cache/no-cache decision."""
    obj = data.draw(_INSTANCES.for_class(cls))
    generated = stable_digest(obj), digest._deeply_immutable(obj)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(digest, "_CANONICAL_EXPANDERS", {})
        patch.setattr(digest, "_IMMUTABILITY_VERDICTS", {})
        reflective = stable_digest(obj), digest._deeply_immutable(obj)
    assert generated == reflective


_SIGNATURE = '["@Sg","A-0","ab","cd"]'


@pytest.mark.parametrize(
    "frame",
    [
        pytest.param(b"\xff\xfe", id="bad-utf8"),
        pytest.param(b"", id="empty"),
        pytest.param(_SIGNATURE[:-4].encode(), id="truncated"),
        pytest.param(b"[" * 100_000, id="deep-nesting"),
        pytest.param(
            b'["@Le",1,"x",' + b'["t",' * 600 + b"1" + b"]" * 600 + b",null,0]",
            id="deep-any-value",
        ),
        pytest.param(b'{"@Sg":1}', id="non-array"),
        pytest.param(b"[]", id="empty-array"),
        pytest.param(b'["@zz",1]', id="unknown-tag"),
        pytest.param(b'[["@Sg"],1]', id="non-string-tag"),
        pytest.param(b'["@Sg","A-0","ab"]', id="wrong-arity"),
        pytest.param(b'["@Sg","A-0",7,"cd"]', id="wrong-field-type"),
        pytest.param(b'["@Qp","ab",[["@Sg","A-0"]]]', id="bad-nested-record"),
        pytest.param(b'["@Le",1,"x",["?",1],null,0]', id="unknown-value-tag"),
        pytest.param(_SIGNATURE.encode() + b" ", id="trailing-data"),
    ],
)
def test_malformed_frames_raise_protocol_error(frame):
    with pytest.raises(ProtocolError):
        decode_wire_bytes(frame)


@_per_class
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mutated_frames_decode_or_raise_protocol_error(cls, data):
    """Flip, truncate or splice the bytes of a valid frame, per wire
    class: the decoder returns a wire object or raises ProtocolError."""
    frame = bytearray(encode_wire_bytes(data.draw(_INSTANCES.for_class(cls))))
    at = data.draw(st.integers(0, len(frame) - 1))
    mutation = data.draw(st.sampled_from(["flip", "truncate", "splice"]))
    if mutation == "flip":
        frame[at] = data.draw(st.integers(0, 255))
    elif mutation == "truncate":
        del frame[at:]
    else:
        donor = data.draw(st.sampled_from(_ALL_CLASSES))
        other = encode_wire_bytes(data.draw(_INSTANCES.for_class(donor)))
        frame[at:] = other[data.draw(st.integers(0, len(other) - 1)):]
    try:
        decoded = decode_wire_bytes(bytes(frame))
    except ProtocolError:
        return
    assert type(decoded) in MANIFEST
