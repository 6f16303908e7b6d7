"""Canonical digests of protocol values.

Protocol payloads are arbitrary Python values (the paper's interface
takes "an arbitrary string"; we are slightly more liberal and accept any
tree of basic types and dataclasses). :func:`stable_digest` serializes
such a value canonically — independent of dict insertion order — and
hashes it with SHA-256 so that two honest nodes always derive the same
digest for the same logical value.

The canonicalizer is iterative (an explicit stack instead of one Python
frame per tree node) with single-append fast paths for the str/int/
bytes leaves that dominate real payloads. It is the uncached
reference for two memos: :func:`cached_digest` keys application values
by identity (every replica shares the payload object), and
:func:`formula_digest` keys the record formulas by content (every
replica rebuilds its own entry, chain link and request binding from a
few exact strings and ints), so a unit walks each once.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, List

from repro.crypto.caches import IdentityLRU, KeyedLRU
from repro.errors import CryptoError


class _Emit:
    """Stack marker: literal bytes to append when popped (container
    closers). A distinct type so byte *values* can never alias it."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


_CLOSE_LIST = _Emit(b"]")
_CLOSE_TUPLE = _Emit(b")")
_CLOSE_DICT = _Emit(b"}")
_CLOSE_SET = _Emit(b")")
_CLOSE_DATACLASS = _Emit(b">")

#: Per-class canonical expanders, filled in by :mod:`repro.core.codec`
#: at its import (with stand-ins that compile the class's code on first
#: use): generated functions that push one dataclass's fields onto the
#: walk stack with the field-name encodings precomputed.
#: Byte-identical to the generic dataclass branch in
#: :func:`_canonical_slow` — only the per-field
#: ``dataclasses.fields``/encode overhead is removed. Classes without an
#: entry (and every class, in the parity tests that empty this dict)
#: take the generic branch.
_CANONICAL_EXPANDERS: dict = {}


def canonical_field_marker(name: str) -> _Emit:
    """Precomputed canonical encoding of a dataclass field name, for
    generated expanders (``s<len>:<name>`` merged into one append)."""
    encoded = name.encode("utf-8")
    return _Emit(b"s%d:" % len(encoded) + encoded)


def canonical_dataclass_close() -> _Emit:
    """The dataclass close marker, shared with generated expanders."""
    return _CLOSE_DATACLASS


def _canonical_into(value: Any, out: List[bytes]) -> None:
    """Append the canonical byte representation of ``value`` to ``out``.

    Iterative depth-first walk; children are pushed in reverse so pops
    emit them in order. Exact types take the fast path; subclasses fall
    back to the isinstance chain so e.g. ``IntEnum`` members serialize
    exactly as before.
    """
    append = out.append
    stack: List[Any] = [value]
    pop = stack.pop
    while stack:
        v = pop()
        cls = v.__class__
        if cls is _Emit:
            append(v.data)
        elif cls is str:
            encoded = v.encode("utf-8")
            append(b"s%d:" % len(encoded))
            append(encoded)
        elif cls is int:
            append(b"i%d" % v)
        elif cls is bool:
            append(b"b1" if v else b"b0")
        elif v is None:
            append(b"n")
        elif cls is bytes:
            append(b"y%d:" % len(v))
            append(v)
        elif cls is float:
            append(b"f" + repr(v).encode())
        elif cls is tuple:
            # Tuples and lists are distinct values and must never
            # collide (``(None, None)`` vs ``[None, None]``) — the wire
            # layer documents that JSON's tuple→list conversion changes
            # the digest and callers normalize on receipt.
            append(b"t%d(" % len(v))
            stack.append(_CLOSE_TUPLE)
            for item in reversed(v):
                stack.append(item)
        elif cls is list:
            append(b"l%d[" % len(v))
            stack.append(_CLOSE_LIST)
            for item in reversed(v):
                stack.append(item)
        elif cls is dict:
            append(b"d%d{" % len(v))
            stack.append(_CLOSE_DICT)
            try:
                items = sorted(v.items(), key=_repr_of_key)
            except TypeError as exc:  # unsortable keys
                raise CryptoError(
                    f"cannot canonicalize dict keys: {exc}"
                ) from exc
            for key, item in reversed(items):
                stack.append(item)
                stack.append(key)
        elif cls is set or cls is frozenset:
            append(b"S%d(" % len(v))
            stack.append(_CLOSE_SET)
            for item in sorted(v, key=repr, reverse=True):
                stack.append(item)
        else:
            expander = _CANONICAL_EXPANDERS.get(cls)
            if expander is not None:
                expander(v, append, stack)
            else:
                _canonical_slow(v, append, stack)


def _repr_of_key(kv: Any) -> str:
    return repr(kv[0])


def _canonical_slow(v: Any, append: Callable, stack: List[Any]) -> None:
    """Subclass / dataclass / unknown-type path of the canonical walk.

    Mirrors the exact-type dispatch with isinstance checks so values of
    derived types keep their historical encodings.
    """
    if isinstance(v, bool):
        append(b"b1" if v else b"b0")
    elif isinstance(v, int):
        append(b"i" + str(v).encode())
    elif isinstance(v, float):
        append(b"f" + repr(v).encode())
    elif isinstance(v, str):
        encoded = v.encode("utf-8")
        append(b"s%d:" % len(encoded))
        append(encoded)
    elif isinstance(v, bytes):
        append(b"y%d:" % len(v))
        append(v)
    elif isinstance(v, tuple):
        append(b"t%d(" % len(v))
        stack.append(_CLOSE_TUPLE)
        for item in reversed(v):
            stack.append(item)
    elif isinstance(v, list):
        append(b"l%d[" % len(v))
        stack.append(_CLOSE_LIST)
        for item in reversed(v):
            stack.append(item)
    elif isinstance(v, dict):
        append(b"d%d{" % len(v))
        stack.append(_CLOSE_DICT)
        try:
            items = sorted(v.items(), key=_repr_of_key)
        except TypeError as exc:
            raise CryptoError(f"cannot canonicalize dict keys: {exc}") from exc
        for key, item in reversed(items):
            stack.append(item)
            stack.append(key)
    elif isinstance(v, (set, frozenset)):
        append(b"S%d(" % len(v))
        stack.append(_CLOSE_SET)
        for item in sorted(v, key=repr, reverse=True):
            stack.append(item)
    elif dataclasses.is_dataclass(v) and not isinstance(v, type):
        append(b"D" + type(v).__name__.encode() + b"<")
        stack.append(_CLOSE_DATACLASS)
        for field in reversed(dataclasses.fields(v)):
            stack.append(getattr(v, field.name))
            stack.append(field.name)
    else:
        raise CryptoError(
            f"cannot canonicalize value of type {type(v).__name__}"
        )


def stable_digest(value: Any) -> str:
    """Return a hex SHA-256 digest of ``value``'s canonical form.

    Raises:
        CryptoError: If the value contains a type with no canonical
            representation (e.g. an arbitrary object).
    """
    out: List[bytes] = []
    _canonical_into(value, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


# ----------------------------------------------------------------------
# Identity-keyed digest memo
# ----------------------------------------------------------------------

#: Shared memo for :func:`cached_digest`. Entries pin their keyed
#: object, so identity keys cannot be recycled while cached (see
#: :class:`~repro.crypto.caches.IdentityLRU`).
_DIGEST_CACHE = IdentityLRU(maxsize=8192)

#: Leaf types that can never change value in place.
_IMMUTABLE_LEAVES = (type(None), bool, int, float, str, bytes)

#: Per-class immutability verdicts, filled in by :mod:`repro.core.codec`
#: at its import (a frozen class's with a stand-in that compiles the
#: class on first use): for a MANIFEST class, ``False`` means "never deeply
#: immutable" (not frozen, or a field is always a mutable container)
#: and a callable isinstance-checks the scalar fields and pushes only
#: the fields the spec cannot decide statically. A verdict may only be
#: *stricter* than the reflective walk — refusing to memoize is always
#: safe, memoizing a mutable value never is.
_IMMUTABILITY_VERDICTS: dict = {}


def _deeply_immutable(value: Any) -> bool:
    """Whether ``value`` is a tree of immutable values all the way down.

    Only such values are safe to memoize by identity with no
    invalidation protocol: nothing reachable from them can be mutated
    into a different canonical form. Frozen dataclasses qualify when
    every field value does; lists, dicts, sets, and non-frozen
    dataclasses do not.
    """
    verdicts = _IMMUTABILITY_VERDICTS
    stack = [value]
    pop = stack.pop
    while stack:
        v = pop()
        verdict = verdicts.get(v.__class__)
        if verdict is not None:
            if verdict is False:
                return False
            if verdict(v, stack):
                continue
            return False
        if isinstance(v, _IMMUTABLE_LEAVES):
            continue
        if isinstance(v, (tuple, frozenset)):
            stack.extend(v)
            continue
        if dataclasses.is_dataclass(v) and not isinstance(v, type):
            params = getattr(type(v), "__dataclass_params__", None)
            if params is None or not params.frozen:
                return False
            for field in dataclasses.fields(v):
                stack.append(getattr(v, field.name))
            continue
        return False
    return True


def cached_digest(obj: Any) -> str:
    """Identity-memoized :func:`stable_digest` of an application value.

    Cache hits require the *same object* (``is``-identity);
    equal-but-distinct objects recompute and agree with
    :func:`stable_digest` by construction. Mutable values (anything
    failing the deep-immutability check) are never cached — they take
    the compute path every time, so the memo needs no invalidation
    hooks. Record formulas go through :func:`formula_digest` instead.
    """
    hit = _DIGEST_CACHE.lookup(obj)
    if hit is not None:
        return hit
    digest = stable_digest(obj)
    if _deeply_immutable(obj):
        _DIGEST_CACHE.store(obj, digest)
    return digest


#: Bound of the content-keyed formula memo: a peer minting fresh
#: request ids churns it, but cannot grow it.
FORMULA_MEMO_SIZE = 8192
_FORMULA_MEMO = KeyedLRU(maxsize=FORMULA_MEMO_SIZE)

#: Tags a dict's sorted items inside a memo key; no field tuple of
#: str/int/None leaves can contain it, so no tuple equals a dict's key.
_DICT_TAG = object()


def _formula_key(fields: tuple) -> Any:
    """The memo key of ``fields``, or None when equal keys could hide
    different canonical bytes.

    Leaves must be *exact* ``str``/``int``/``None`` (``True == 1``,
    ``0.0 == -0.0`` and subclasses canonicalize differently), inside
    nested tuples, or a top-level field may be a str-keyed dict of such
    leaves (record ``meta``), keyed as its tagged sorted items.
    """
    key, stack = fields, []
    for index, item in enumerate(fields):
        cls = item.__class__
        if cls is str or cls is int or item is None:
            continue
        if cls is tuple:
            stack.extend(item)
            continue
        if cls is not dict:
            return None
        for name, leaf in item.items():
            cls = leaf.__class__
            if name.__class__ is not str or not (
                cls is str or cls is int or leaf is None
            ):
                return None
        if key is fields:
            key = list(fields)
        key[index] = (_DICT_TAG, tuple(sorted(item.items())))
    while stack:
        item = stack.pop()
        cls = item.__class__
        if cls is tuple:
            stack.extend(item)
        elif not (cls is str or cls is int or item is None):
            return None
    return fields if key is fields else tuple(key)


def formula_digest(fields: tuple) -> str:
    """``stable_digest(fields)``, memoized by content.

    For the record digest formulas, whose fields every replica of a
    unit rebuilds as distinct objects. Fields with a leaf
    :func:`_formula_key` cannot key safely take :func:`stable_digest`
    uncached (and count as a miss), so a hit is always the string the
    uncached walk returns.
    """
    key = _formula_key(fields)
    if key is None:
        _FORMULA_MEMO.misses += 1
        return stable_digest(fields)
    digest = _FORMULA_MEMO.lookup(key)
    if digest is None:
        digest = stable_digest(fields)
        _FORMULA_MEMO.store(key, digest)
    return digest


def clear_digest_cache() -> None:
    """Drop every memoized digest (both memos)."""
    _DIGEST_CACHE.clear()
    _FORMULA_MEMO.clear()


def digest_cache_stats() -> dict:
    """Hit/miss/size counters, summed over the value and formula memos."""
    return {
        "hits": _DIGEST_CACHE.hits + _FORMULA_MEMO.hits,
        "misses": _DIGEST_CACHE.misses + _FORMULA_MEMO.misses,
        "size": len(_DIGEST_CACHE) + len(_FORMULA_MEMO),
    }
