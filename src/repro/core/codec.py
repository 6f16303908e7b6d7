"""Precompiled wire codecs for every boundary-crossing dataclass.

This module is the repo's one serializer. At import time, one
encoder/decoder pair per wire dataclass is compiled (``exec``) from the
class's field inventory (BP008 guarantees every ``*/messages.py``
dataclass is slotted, so the inventory is exact and closed). The
generated format is a flat positional JSON array — ``["@Sg", signer,
digest, mac]`` — with:

* **no key strings and no key sorting** — field order is the dataclass
  field order, fixed at generation time;
* **interned hot strings** — node ids, site/participant names, record
  types, phase digests, and request ids are passed through
  ``sys.intern`` at decode time, so repeated identities share one
  object and downstream dict/cache lookups compare by pointer (see
  :func:`repro.crypto.signatures.verify`);
* **decode-time validation folded into the generated code** — arity,
  tag, and per-field type checks; whatever the bytes, a decoder raises
  nothing but :class:`~repro.errors.ProtocolError`;
* **tuple fidelity** — arbitrary (``Any``-typed) payload values are
  encoded with container tags (``["t", ...]`` vs ``["l", ...]``), so
  tuples survive the wire and decoded records digest identically to the
  originals.

The same generation pass emits **canonical-digest expanders** and
**immutability verdicts**: per-class functions placed in
:mod:`repro.crypto.digest`'s registries that replace the generic
per-field ``dataclasses.fields``/``getattr`` walks with unrolled,
byte-identical code. Digest values are unchanged — only the time to
produce them. The reflective walks stay in ``digest`` for dataclasses
outside the manifest, and are the oracle the parity tests compare
against.

The :data:`MANIFEST` below is the codec coverage contract: BP013
(``repro.analysis``) statically cross-checks it against every
``*/messages.py`` dataclass and fails ``make lint`` on a missing class
or a field list drifting from ``__slots__``; the import-time generation
re-verifies the same invariant at runtime.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from typing import Any, Callable, Dict, List, Tuple

from repro.core import messages as _core_messages
from repro.core import records as _records
from repro.crypto import digest as _digest
from repro.crypto.caches import IdentityLRU, KeyedLRU
from repro.crypto.signatures import QuorumProof, Signature
from repro.errors import ProtocolError
from repro.paxos import messages as _paxos_messages
from repro.pbft import messages as _pbft_messages

# ----------------------------------------------------------------------
# Coverage manifest
# ----------------------------------------------------------------------

#: Every wire dataclass, its two-letter wire tag, and its exact field
#: inventory. The tag is part of the wire format (do not renumber); the
#: field tuples are the drift tripwire — import-time generation and the
#: BP013 lint both fail when a class's real fields diverge from this
#: manifest. Message subclasses inherit ``payload_bytes`` first.
MANIFEST: Dict[type, Tuple[str, Tuple[str, ...]]] = {
    # crypto
    Signature: ("@Sg", ("signer", "digest", "mac")),
    QuorumProof: ("@Qp", ("digest", "signatures")),
    # core records
    _records.LogEntry: (
        "@Le", ("position", "record_type", "value", "meta", "payload_bytes"),
    ),
    _records.TransmissionRecord: (
        "@Tr",
        (
            "source", "destination", "message", "source_position",
            "prev_position", "payload_bytes",
        ),
    ),
    _records.SealedTransmission: ("@Sx", ("record", "proof", "geo_proofs")),
    _records.LogSnapshot: (
        "@Ls",
        (
            "participant", "base_position", "entry_chain", "comm_heads",
            "reception_floors",
        ),
    ),
    _records.MirrorEntry: (
        "@Me", ("source", "position", "record_type", "value", "meta"),
    ),
    # core messages
    _core_messages.SignRequest: (
        "@sq", ("payload_bytes", "position", "digest", "purpose"),
    ),
    _core_messages.SignResponse: (
        "@sr", ("payload_bytes", "position", "digest", "signature", "purpose"),
    ),
    _core_messages.TransmissionMessage: (
        "@tm", ("payload_bytes", "sealed", "trace"),
    ),
    _core_messages.TransmissionAck: (
        "@ta",
        (
            "payload_bytes", "source_participant", "receiver_participant",
            "source_position",
        ),
    ),
    _core_messages.GapQuery: ("@gq", ("payload_bytes", "source_participant")),
    _core_messages.GapResponse: (
        "@gr", ("payload_bytes", "source_participant", "last_source_position"),
    ),
    _core_messages.MirrorRequest: (
        "@mq", ("payload_bytes", "entry", "proof", "reply_to"),
    ),
    _core_messages.MirrorResponse: (
        "@mr", ("payload_bytes", "source", "position", "participant", "proof"),
    ),
    _core_messages.Heartbeat: ("@hb", ("payload_bytes", "primary", "sequence")),
    _core_messages.TakeOver: ("@to", ("payload_bytes", "new_primary", "epoch")),
    _core_messages.ReadRequest: (
        "@rq", ("payload_bytes", "position", "request_id"),
    ),
    _core_messages.ReadResponse: (
        "@rr", ("payload_bytes", "position", "request_id", "entry", "replica"),
    ),
    # pbft
    _pbft_messages.CommittedEntry: (
        "@Ce",
        (
            "seq", "view", "value", "record_type", "meta", "payload_bytes",
            "request_id",
        ),
    ),
    _pbft_messages.CheckpointCertificate: (
        "@Cc", ("seq", "state_digest", "snapshot_digest", "signatures"),
    ),
    _pbft_messages.ClientRequest: (
        "@cr",
        ("payload_bytes", "request_id", "value", "record_type", "meta", "trace"),
    ),
    _pbft_messages.PrePrepare: (
        "@pp",
        (
            "payload_bytes", "view", "seq", "digest", "request_id", "value",
            "record_type", "meta", "trace",
        ),
    ),
    _pbft_messages.Prepare: (
        "@pr", ("payload_bytes", "view", "seq", "digest", "replica"),
    ),
    _pbft_messages.Commit: (
        "@cm", ("payload_bytes", "view", "seq", "digest", "replica"),
    ),
    _pbft_messages.Reply: (
        "@re", ("payload_bytes", "view", "seq", "digest", "request_id", "replica"),
    ),
    _pbft_messages.RejectRequest: (
        "@rj", ("payload_bytes", "request_id", "reason", "replica"),
    ),
    _pbft_messages.Checkpoint: (
        "@cp",
        (
            "payload_bytes", "seq", "state_digest", "snapshot_digest",
            "signature", "replica",
        ),
    ),
    _pbft_messages.PreparedCertificate: (
        "@pc",
        (
            "payload_bytes", "view", "seq", "digest", "value", "record_type",
            "meta", "request_id", "trace",
        ),
    ),
    _pbft_messages.ViewChange: (
        "@vc", ("payload_bytes", "new_view", "last_executed", "prepared", "replica"),
    ),
    _pbft_messages.NewView: (
        "@nv", ("payload_bytes", "new_view", "pre_prepares", "replica"),
    ),
    _pbft_messages.CatchUpRequest: (
        "@cq", ("payload_bytes", "from_seq", "replica"),
    ),
    _pbft_messages.CatchUpResponse: (
        "@cs", ("payload_bytes", "entries", "replica"),
    ),
    _pbft_messages.SnapshotResponse: (
        "@ss", ("payload_bytes", "certificate", "snapshot", "entries", "replica"),
    ),
    # paxos
    _paxos_messages.PaxosPrepare: (
        "@xp", ("payload_bytes", "ballot", "first_unchosen"),
    ),
    _paxos_messages.Promise: (
        "@xm", ("payload_bytes", "ballot", "accepted", "acceptor"),
    ),
    _paxos_messages.Accept: ("@xa", ("payload_bytes", "ballot", "slot", "value")),
    _paxos_messages.Accepted: (
        "@xd", ("payload_bytes", "ballot", "slot", "acceptor"),
    ),
    _paxos_messages.Nack: ("@xn", ("payload_bytes", "ballot", "promised", "slot")),
    _paxos_messages.Learn: ("@xl", ("payload_bytes", "slot", "value")),
}

#: Fields whose string content is an identity that repeats across many
#: messages (node ids, participant names, record types, digests voted on
#: by whole units). Decoders pass these through ``sys.intern`` — the
#: intern call doubles as the str type check. Container fields listed
#: here intern their string *elements*.
INTERN_FIELDS = frozenset(
    {
        "signer", "digest", "mac_never",  # mac is unique per signature: not interned
        "source", "destination", "participant", "source_participant",
        "receiver_participant", "record_type", "replica", "primary",
        "new_primary", "purpose", "reason", "state_digest", "snapshot_digest",
        "entry_chain", "reply_to", "acceptor", "request_id", "geo_proofs",
        "comm_heads", "reception_floors", "ballot", "promised",
    }
)

#: Field annotations too loose to drive generation (e.g. a bare
#: ``tuple``); mapped to the precise spec used instead.
_SPEC_OVERRIDES: Dict[Tuple[type, str], Any] = {
    (QuorumProof, "signatures"): ("vtuple", ("cls", Signature)),
}


# ----------------------------------------------------------------------
# Spec inference
# ----------------------------------------------------------------------

def _spec_of(annotation: Any, field_name: str) -> Any:
    """Map a type annotation to a codec spec tree."""
    intern = field_name in INTERN_FIELDS
    if annotation is Any:
        return ("any",)
    if annotation is str:
        return ("str", intern)
    if annotation is int:
        return ("int",)
    if annotation is float:
        return ("float",)
    if annotation is bool:
        return ("bool",)
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:
        inner = [a for a in args if a is not type(None)]
        if len(inner) == 1 and type(None) in args:
            return ("opt", _spec_of(inner[0], field_name))
        raise RuntimeError(f"codec: unsupported union {annotation!r}")
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return ("vtuple", _spec_of(args[0], field_name))
        return ("ftuple", tuple(_spec_of(a, field_name) for a in args))
    if origin is list:
        return ("list", _spec_of(args[0], field_name))
    if origin is dict:
        key, value = args
        if key is str:
            return ("dicts", _spec_of(value, field_name))
        if key is int:
            return ("dicti", _spec_of(value, field_name))
        raise RuntimeError(f"codec: unsupported dict key type {key!r}")
    if isinstance(annotation, type) and annotation in MANIFEST:
        return ("cls", annotation)
    raise RuntimeError(
        f"codec: no spec for annotation {annotation!r} (field {field_name!r})"
    )


_SCALARS = {"str", "int", "float", "bool"}


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------

class _Gen:
    """Accumulates generated helper sources and fresh variable names."""

    def __init__(self, scope: str = "") -> None:
        self.helpers: List[str] = []
        self._scope = scope
        self._counter = 0

    def fresh(self, prefix: str) -> str:
        # Helpers land in one shared exec namespace; scope their names
        # by class so two classes' helpers can never collide.
        self._counter += 1
        return f"{prefix}_{self._scope}{self._counter}"

    # -- encode ---------------------------------------------------------
    def enc(self, spec: Any, a: str) -> str:
        kind = spec[0]
        if kind in _SCALARS:
            return a
        if kind == "any":
            return f"_ev({a})"
        if kind == "opt":
            return f"(None if {a} is None else {self.enc(spec[1], a)})"
        if kind == "cls":
            return f"_e_{spec[1].__name__}({a})"
        if kind in ("vtuple", "list"):
            if spec[1][0] in _SCALARS:
                return f"list({a})"
            var = self.fresh("i")
            return f"[{self.enc(spec[1], var)} for {var} in {a}]"
        if kind == "ftuple":
            if all(s[0] in _SCALARS for s in spec[1]):
                return f"list({a})"
            parts = ", ".join(
                self.enc(s, f"{a}[{k}]") for k, s in enumerate(spec[1])
            )
            return f"[{parts}]"
        if kind == "dicts":
            if spec[1][0] in _SCALARS:
                return a
            key, val = self.fresh("k"), self.fresh("w")
            return (
                f"{{{key}: {self.enc(spec[1], val)}"
                f" for {key}, {val} in {a}.items()}}"
            )
        if kind == "dicti":
            key, val = self.fresh("k"), self.fresh("w")
            return (
                f"[[{key}, {self.enc(spec[1], val)}]"
                f" for {key}, {val} in {a}.items()]"
            )
        raise RuntimeError(f"codec: unencodable spec {spec!r}")

    # -- decode ---------------------------------------------------------
    def dec(self, spec: Any, a: str, label: str) -> str:
        kind = spec[0]
        if kind == "str":
            if spec[1]:
                return f"_it({a})"
            return f"({a} if type({a}) is str else _bad({a}, {label!r}))"
        if kind == "int":
            return f"({a} if type({a}) is int else _bad({a}, {label!r}))"
        if kind == "bool":
            return f"({a} if type({a}) is bool else _bad({a}, {label!r}))"
        if kind == "float":
            return (
                f"({a} if type({a}) is float else float({a})"
                f" if type({a}) is int else _bad({a}, {label!r}))"
            )
        if kind == "any":
            return f"_dv({a})"
        if kind == "opt":
            return f"(None if {a} is None else {self.dec(spec[1], a, label)})"
        if kind == "cls":
            return f"_d_{spec[1].__name__}({a})"
        if kind == "vtuple":
            var = self.fresh("i")
            # List comprehension (not a genexpr) — one frame for the
            # whole sequence instead of one resume per element — and an
            # inline list type check instead of a helper call.
            return (
                f"tuple([{self.dec(spec[1], var, label)} for {var} in "
                f"({a} if type({a}) is list else _bad({a}, {label!r}))])"
            )
        if kind == "list":
            var = self.fresh("i")
            return (
                f"[{self.dec(spec[1], var, label)} for {var} in "
                f"({a} if type({a}) is list else _bad({a}, {label!r}))]"
            )
        if kind == "ftuple":
            name = self.fresh("_ft")
            parts = ", ".join(
                self.dec(s, f"v[{k}]", f"{label}[{k}]")
                for k, s in enumerate(spec[1])
            )
            self.helpers.append(
                f"def {name}(v):\n"
                f"    if type(v) is not list or len(v) != {len(spec[1])}:\n"
                f"        _bad(v, {label!r})\n"
                f"    return ({parts},)\n"
            )
            return f"{name}({a})"
        if kind == "dicts":
            key, val = self.fresh("k"), self.fresh("w")
            return (
                f"{{{key}: {self.dec(spec[1], val, label)}"
                f" for {key}, {val} in _dct({a}, {label!r}).items()}}"
            )
        if kind == "dicti":
            key, val = self.fresh("k"), self.fresh("w")
            inner = self.dec(spec[1], val, label)
            return (
                f"{{({key} if type({key}) is int else _bad({key}, {label!r})):"
                f" {inner} for {key}, {val} in _lst({a}, {label!r})}}"
            )
        raise RuntimeError(f"codec: undecodable spec {spec!r}")


# Runtime helpers shared by all generated code ------------------------


def _bad(value: Any, what: str) -> Any:
    raise ProtocolError(f"malformed wire value for {what}: {value!r:.120}")


def _lst(value: Any, what: str) -> list:
    if type(value) is not list:
        raise ProtocolError(f"malformed wire value for {what}: expected array")
    return value


def _dct(value: Any, what: str) -> dict:
    if type(value) is not dict:
        raise ProtocolError(f"malformed wire value for {what}: expected object")
    return value


#: Scalar leaf classes passed through the Any-value walkers untouched.
#: Real payloads are overwhelmingly tuples of these, so both walkers
#: test membership inline instead of recursing per element.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _encode_value(v: Any) -> Any:
    """Generic walker for ``Any``-typed payload values (tagged containers
    preserve the tuple/list distinction across the wire)."""
    cls = v.__class__
    if cls in _SCALAR_TYPES:
        return v
    if cls is tuple or cls is list:
        scalars = _SCALAR_TYPES
        return [
            "t" if cls is tuple else "l",
            *[
                item if item.__class__ in scalars else _encode_value(item)
                for item in v
            ],
        ]
    if cls is dict:
        return {key: _encode_value(item) for key, item in v.items()}
    if cls is bytes:
        return ["y", v.decode("latin-1")]
    encoder = _ENCODERS.get(cls)
    if encoder is not None:
        return encoder(v)
    raise ProtocolError(f"cannot wire-encode value of type {cls.__name__}")


def _decode_value(v: Any) -> Any:
    """Inverse of :func:`_encode_value`."""
    cls = v.__class__
    if cls is list:
        if not v:
            raise ProtocolError("malformed wire value: untagged empty array")
        tag = v[0]
        if tag == "t":
            return tuple(
                [
                    item
                    if item.__class__ is not list and item.__class__ is not dict
                    else _decode_value(item)
                    for item in v
                ][1:]
            )
        if tag == "l":
            return [
                item
                if item.__class__ is not list and item.__class__ is not dict
                else _decode_value(item)
                for item in v
            ][1:]
        if tag == "y":
            return v[1].encode("latin-1")
        decoder = _TAG_DECODERS.get(tag) if tag.__class__ is str else None
        if decoder is not None:
            return decoder(v)
        raise ProtocolError(f"malformed wire value: unknown tag {tag!r:.40}")
    if cls is dict:
        return {key: _decode_value(item) for key, item in v.items()}
    return v


# ----------------------------------------------------------------------
# Generation pass
# ----------------------------------------------------------------------

_ENCODERS: Dict[type, Callable[[Any], list]] = {}
_DECODERS: Dict[type, Callable[[list], Any]] = {}
_TAG_DECODERS: Dict[str, Callable[[list], Any]] = {}
#: Field names and spec trees per class, as the generation pass derived
#: them (the property tests build their strategies from these).
_SPECS: Dict[type, Tuple[Tuple[str, ...], list]] = {}


def _imm_kind(spec: Any) -> str:
    """Classify a field spec for the generated immutability verdict.

    ``leaf``: the value type-checks against the immutable leaves or the
    field is malformed — one isinstance decides it. ``mutable``: the
    spec promises a list/dict, so any present value disqualifies the
    object. ``dynamic``: the spec alone cannot decide (``Any`` payloads,
    tuples, nested records) — the field value is pushed back onto the
    generic walk, where nested MANIFEST classes hit their own verdicts.
    """
    kind = spec[0]
    if kind in _SCALARS:
        return "leaf"
    if kind in ("list", "dicts", "dicti"):
        return "mutable"
    if kind == "opt":
        inner = _imm_kind(spec[1])
        return inner if inner in ("leaf", "mutable") else "dynamic"
    return "dynamic"


def _generate() -> None:
    ns: Dict[str, Any] = {
        "_ev": _encode_value,
        "_dv": _decode_value,
        "_it": sys.intern,
        "_bad": _bad,
        "_lst": _lst,
        "_dct": _dct,
        "_new": object.__new__,
        "_osa": object.__setattr__,
        "ProtocolError": ProtocolError,
        "_dc_close": _digest.canonical_dataclass_close(),
        "_ileaves": _digest._IMMUTABLE_LEAVES,
    }
    for cls, (tag, expected_fields) in MANIFEST.items():
        actual = tuple(f.name for f in dataclasses.fields(cls))
        if actual != expected_fields:
            raise RuntimeError(
                f"codec manifest drift for {cls.__name__}: manifest lists "
                f"{expected_fields!r} but the dataclass has {actual!r}"
            )
        hints = typing.get_type_hints(cls)
        specs = [
            _SPEC_OVERRIDES.get((cls, name), None)
            or _spec_of(hints[name], name)
            for name in expected_fields
        ]
        _SPECS[cls] = (expected_fields, specs)
        name = cls.__name__
        ns[name] = cls
        gen = _Gen(name)
        enc_parts = ", ".join(
            gen.enc(spec, f"o.{field}")
            for field, spec in zip(expected_fields, specs)
        )
        # Decoded instances are built via ``object.__new__`` plus one
        # ``object.__setattr__`` per slot: identical to what a frozen
        # dataclass ``__init__`` does internally, minus the ``__init__``
        # call and argument-binding overhead (~25% of construction on
        # the profiled hot path). No wire class defines
        # ``__post_init__`` (the generation pass asserts this), so
        # bypassing ``__init__`` cannot skip behavior.
        if hasattr(cls, "__post_init__"):
            raise RuntimeError(
                f"codec: {cls.__name__} defines __post_init__; the "
                f"generated decoder would bypass it"
            )
        sets = "".join(
            f"        _osa(o, {field!r}, "
            f"{gen.dec(spec, f'a[{k + 1}]', f'{name}.{field}')})\n"
            for k, (field, spec) in enumerate(zip(expected_fields, specs))
        )
        arity = len(expected_fields) + 1
        source = "".join(gen.helpers) + (
            f"def _e_{name}(o):\n"
            f"    return ({tag!r}, {enc_parts})\n"
            f"def _d_{name}(a):\n"
            f"    try:\n"
            f"        if type(a) is not list or len(a) != {arity} "
            f"or a[0] != {tag!r}:\n"
            f"            _bad(a, {name!r})\n"
            f"        o = _new({name})\n"
            f"{sets}"
            f"        return o\n"
            f"    except ProtocolError:\n"
            f"        raise\n"
            f"    except (TypeError, ValueError, KeyError, IndexError, "
            f"AttributeError) as exc:\n"
            f"        raise ProtocolError(\n"
            f"            f'malformed {name} on the wire: {{exc!r}}'\n"
            f"        ) from None\n"
        )
        # Canonical-digest expander: unrolled, byte-identical replacement
        # for the generic dataclass branch of the canonical walk. The
        # leading run of scalar fields is emitted inline — field marker
        # and value fused into one append, no stack round-trip — with a
        # per-field runtime type check; the first field that is complex
        # (or whose value defeats the check) pushes itself and every
        # later field back onto the walk stack, which emits them exactly
        # as the generic branch would. Fields are pushed in reverse so
        # pops emit them in declaration order.
        for field in expected_fields:
            ns[f"_fm_{name}_{field}"] = _digest.canonical_field_marker(field)

        def _push_rest(start: int, head: str = "") -> str:
            """Push fields[start:] (plus the close marker) in reverse;
            ``head`` replaces the attribute load for fields[start]."""
            out = ["        stack.append(_dc_close)\n"]
            for k in range(len(expected_fields) - 1, start - 1, -1):
                fld = expected_fields[k]
                value = head if head and k == start else f"v.{fld}"
                out.append(f"        stack.append({value})\n")
                out.append(f"        stack.append(_fm_{name}_{fld})\n")
            out.append("        return\n")
            return "".join(out)

        lines = [f"def _x_{name}(v, append, stack):\n"]
        lines.append(f"    append({b'D' + name.encode() + b'<'!r})\n")
        inlined = 0
        for j, (field, spec) in enumerate(zip(expected_fields, specs)):
            kind = spec[0]
            inner = spec[1][0] if kind == "opt" and spec[1] else None
            scalar = kind if kind in _SCALARS else inner
            if scalar not in _SCALARS:
                break
            marker = _digest.canonical_field_marker(field).data
            lines.append(f"    f = v.{field}\n")
            if kind == "opt":
                lines.append(f"    if f is None:\n")
                lines.append(f"        append({marker + b'n'!r})\n")
                lines.append(f"    el")
            else:
                lines.append(f"    ")
            if scalar == "str":
                lines.append(f"if f.__class__ is str:\n")
                lines.append(f'        e = f.encode("utf-8")\n')
                lines.append(
                    f"        append({marker + b's'!r} b'%d:' % len(e))\n"
                )
                lines.append(f"        append(e)\n")
            elif scalar == "int":
                lines.append(f"if f.__class__ is int:\n")
                lines.append(f"        append({marker + b'i'!r} b'%d' % f)\n")
            elif scalar == "bool":
                lines.append(f"if f is True:\n")
                lines.append(f"        append({marker + b'b1'!r})\n")
                lines.append(f"    elif f is False:\n")
                lines.append(f"        append({marker + b'b0'!r})\n")
            else:  # float
                lines.append(f"if f.__class__ is float:\n")
                lines.append(
                    f"        append({marker + b'f'!r} + repr(f).encode())\n"
                )
            lines.append("    else:\n")
            lines.append(_push_rest(j, head="f"))
            inlined = j + 1
        if inlined == len(expected_fields):
            lines.append("    append(b'>')\n")
        else:
            lines.append("    if True:\n")
            lines.append(_push_rest(inlined))
        source += "".join(lines)
        # Immutability verdict for the digest memo: decided statically
        # from the field specs where possible (see
        # digest._IMMUTABILITY_VERDICTS). Never *looser* than the
        # reflective walk — scalar fields are isinstance-checked against
        # the immutable leaves, fields the spec promises are mutable
        # containers disqualify when present, and anything undecidable
        # goes back onto the generic walk.
        params = getattr(cls, "__dataclass_params__", None)
        frozen = params is not None and params.frozen
        if frozen:
            body = []
            for field, spec in zip(expected_fields, specs):
                imm = _imm_kind(spec)
                if imm == "leaf":
                    body.append(
                        f"    if not isinstance(v.{field}, _ileaves):\n"
                        f"        return False\n"
                    )
                elif imm == "mutable":
                    body.append(
                        f"    if v.{field} is not None:\n"
                        f"        return False\n"
                    )
                else:
                    body.append(f"    stack.append(v.{field})\n")
            source += (
                f"def _m_{name}(v, stack, isinstance=isinstance, "
                f"_ileaves=_ileaves):\n" + "".join(body) + "    return True\n"
            )
        exec(compile(source, f"<codec:{name}>", "exec"), ns)
        _ENCODERS[cls] = ns[f"_e_{name}"]
        _DECODERS[cls] = ns[f"_d_{name}"]
        _TAG_DECODERS[tag] = ns[f"_d_{name}"]
        _digest._CANONICAL_EXPANDERS[cls] = ns[f"_x_{name}"]
        _digest._IMMUTABILITY_VERDICTS[cls] = ns[f"_m_{name}"] if frozen else False


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------

# The stdlib's ``json.dumps``/``JSONEncoder.encode`` rebuild the
# C-accelerated one-shot encoder on *every* call (``c_make_encoder`` in
# ``iterencode``) — measurable fixed overhead per message. Build it once
# and reuse it; ``markers=None`` skips circular-reference tracking,
# which generated encoders cannot produce (they emit trees by
# construction). Falls back to the stock encoder where the C
# accelerator is unavailable.
try:
    from json.encoder import c_make_encoder as _c_make_encoder
    from json.encoder import encode_basestring as _encode_basestring
except ImportError:  # pragma: no cover - accelerator always present here
    _c_make_encoder = None

if _c_make_encoder is not None:
    _C_ITERENCODE = _c_make_encoder(
        None, None, _encode_basestring, None, ":", ",", False, False, True
    )

    def _FAST_DUMPS(obj: Any) -> str:
        return "".join(_C_ITERENCODE(obj, 0))

else:  # pragma: no cover
    _FAST_DUMPS = json.JSONEncoder(
        ensure_ascii=False, separators=(",", ":")
    ).encode

# Symmetrically, ``json.loads`` pays a wrapper, a whitespace regex, and
# a ``raw_decode`` indirection per call; the decoder's C scanner is the
# part that does the work. Call it directly and enforce full
# consumption ourselves.
_SCAN_ONCE = json.JSONDecoder().scan_once

#: Wire-level memos, following the :func:`repro.crypto.digest.cached_digest`
#: precedent. Encode is keyed by object identity — a broadcast encodes
#: the same frozen ``SealedTransmission`` once per destination without
#: the memo — and only deeply-immutable objects are stored. Decode is
#: keyed by the wire text itself (the simulator hands every recipient
#: the same ``str`` object, so fan-in decodes hit by cached string
#: hash); only deeply-immutable results are stored, so sharing one
#: decoded object among recipients is safe.
_ENCODE_MEMO = IdentityLRU(maxsize=4096)
_DECODE_MEMO = KeyedLRU(maxsize=4096)

#: Memo value recording "this key's value must not be cached" (mutable
#: payload somewhere in the tree). Storing the verdict keeps the
#: deep-immutability walk a once-per-object cost instead of a
#: once-per-call cost.
_UNCACHEABLE = object()


def clear_wire_memos() -> None:
    """Drop every memoized wire encode/decode."""
    _ENCODE_MEMO.clear()
    _DECODE_MEMO.clear()


def encode_wire(obj: Any) -> str:
    """Encode a wire dataclass to its JSON text form.

    Raises:
        ProtocolError: If ``obj``'s class has no codec or a payload
            value is not wire-encodable.
    """
    hit = _ENCODE_MEMO.lookup(obj)
    if hit is not None and hit is not _UNCACHEABLE:
        return hit
    encoder = _ENCODERS.get(obj.__class__)
    if encoder is None:
        raise ProtocolError(f"no wire codec for {type(obj).__name__}")
    try:
        text = _FAST_DUMPS(encoder(obj))
    except ProtocolError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable wire value: {exc!r}") from None
    if hit is None:  # _UNCACHEABLE: known mutable, skip the re-walk and store
        _ENCODE_MEMO.store(
            obj,
            text if _digest._deeply_immutable(obj) else _UNCACHEABLE,
        )
    return text


def decode_wire(text: str) -> Any:
    """Decode JSON text produced by :func:`encode_wire`.

    Raises:
        ProtocolError: On malformed input (bad JSON, nesting deeper than
            the interpreter's recursion limit, unknown tag, wrong arity,
            or a field failing its generated type check). Nothing else
            escapes, whatever the input.
    """
    hit = _DECODE_MEMO.lookup(text)
    if hit is not None and hit is not _UNCACHEABLE:
        return hit
    try:
        array, end = _SCAN_ONCE(text, 0)
    except (ValueError, StopIteration, RecursionError) as exc:
        raise ProtocolError(f"malformed wire JSON: {exc!r:.80}") from None
    if end != len(text):
        raise ProtocolError("malformed wire JSON: trailing data")
    if type(array) is not list or not array:
        raise ProtocolError("malformed wire envelope: expected tagged array")
    tag = array[0]
    decoder = _TAG_DECODERS.get(tag) if type(tag) is str else None
    if decoder is None:
        raise ProtocolError(
            f"malformed wire envelope: unknown tag {array[0]!r:.40}"
        )
    try:
        obj = decoder(array)
    except RecursionError:
        raise ProtocolError("malformed wire value: nested too deeply") from None
    if hit is None:  # _UNCACHEABLE: known-mutable result, decoded fresh
        _DECODE_MEMO.store(
            text,
            obj if _digest._deeply_immutable(obj) else _UNCACHEABLE,
        )
    return obj


def encode_wire_bytes(obj: Any) -> bytes:
    """Encode to UTF-8 bytes (the form a production NIC would ship)."""
    return encode_wire(obj).encode("utf-8")


def decode_wire_bytes(data: bytes) -> Any:
    """Decode UTF-8 bytes produced by :func:`encode_wire_bytes`.

    Raises:
        ProtocolError: On bytes that are not UTF-8, and on everything
            :func:`decode_wire` rejects.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"malformed wire bytes: {exc!r:.80}") from None
    return decode_wire(text)


def transcode(obj: Any) -> Tuple[Any, int]:
    """Round-trip ``obj`` through encode→bytes→decode.

    Returns the decoded object and the on-wire byte count. This is the
    work a ``wire_fidelity`` simulation performs per cross-site message
    (the byte count is reported, not charged — the bandwidth model keeps
    charging the modelled ``size_bytes``, so virtual time and event
    counts are the same with fidelity on or off).
    """
    text = encode_wire(obj)
    return decode_wire(text), len(text.encode("utf-8"))


_generate()
