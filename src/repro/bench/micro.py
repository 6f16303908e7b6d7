"""Micro-benchmarks: isolated hot-path operations.

Each benchmark exercises one primitive the commit pipeline leans on —
canonical digesting, HMAC sign/verify, quorum-proof checking, simulator
heap churn, and wire encode/decode. Workloads are built from the
benchmark seed, so operation counts are identical across invocations
and across the cache-on / cache-off control passes.
"""

from __future__ import annotations

import random
from typing import List

from repro.bench.harness import Benchmark
from repro.core.codec import decode_wire, encode_wire
from repro.core.records import TransmissionRecord
from repro.core.wire import (
    decode_sealed,
    encode_sealed,
    from_json,
    to_json,
)
from repro.core.records import SealedTransmission
from repro.crypto.digest import stable_digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import QuorumProof, sign, verify
from repro.sim.simulator import Simulator

#: Distinct payload objects per corpus (enough to defeat trivial
#: branch-prediction effects, small enough to stay cache-resident).
_CORPUS = 64
#: Digest/sign/verify operations per timed repeat.
_OPS = 2_000
#: Events per heap-churn repeat.
_CHURN_EVENTS = 4_096


def _payload(rng: random.Random, index: int):
    """A nested, deeply-immutable, wire-encodable payload shaped like
    real workload values (tuples of ints/strs/floats with depth)."""
    return (
        f"entry-{index}",
        tuple(rng.randrange(1 << 30) for _ in range(24)),
        (("meta", index, rng.random()), f"tail-{rng.randrange(1 << 16)}"),
    )


def _digest_value(rng: random.Random, index: int):
    """A payload for the raw canonicalizer: adds the bytes/frozenset
    branches the wire format does not carry."""
    return _payload(rng, index) + (
        bytes(rng.randrange(256) for _ in range(32)),
        frozenset(rng.sample(range(1000), 5)),
    )


def _records(seed: int) -> List[TransmissionRecord]:
    rng = random.Random(seed)
    return [
        TransmissionRecord(
            source="C",
            destination="V",
            message=_payload(rng, index),
            source_position=index,
            prev_position=index - 1 if index else None,
            payload_bytes=1000,
        )
        for index in range(_CORPUS)
    ]


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------
def _make_digest_stable(seed: int):
    rng = random.Random(seed)
    corpus = [_digest_value(rng, index) for index in range(_CORPUS)]

    def operation():
        for index in range(_OPS):
            stable_digest(corpus[index % _CORPUS])
        return {"values": _CORPUS}

    return operation, _OPS


def _make_digest_cached(seed: int):
    records = _records(seed)

    def operation():
        for index in range(_OPS):
            records[index % _CORPUS].digest()
        return {"records": _CORPUS}

    return operation, _OPS


# ----------------------------------------------------------------------
# Sign / verify / proof
# ----------------------------------------------------------------------
def _registry_and_digests(seed: int, signers: int = 4):
    registry = KeyRegistry(seed=seed)
    node_ids = [f"C-n{index}" for index in range(signers)]
    registry.register_all(node_ids)
    digests = [record.digest() for record in _records(seed)]
    return registry, node_ids, digests


def _make_crypto_sign(seed: int):
    registry, node_ids, digests = _registry_and_digests(seed)

    def operation():
        for index in range(_OPS):
            sign(
                registry,
                node_ids[index % len(node_ids)],
                digests[index % len(digests)],
            )
        return {"signers": len(node_ids)}

    return operation, _OPS


def _make_crypto_verify(seed: int):
    registry, node_ids, digests = _registry_and_digests(seed)
    pairs = [
        (sign(registry, node_ids[index % len(node_ids)], digest), digest)
        for index, digest in enumerate(digests)
    ]

    def operation():
        valid = 0
        for index in range(_OPS):
            signature, digest = pairs[index % len(pairs)]
            valid += verify(registry, signature, digest)
        return {"valid": valid}

    return operation, _OPS


def _make_proof_check(seed: int):
    registry, node_ids, digests = _registry_and_digests(seed)
    required = 2  # fi + 1 for fi = 1
    proofs = [
        QuorumProof.build(
            digest, [sign(registry, node_id, digest) for node_id in node_ids]
        )
        for digest in digests
    ]
    ops = 500

    def operation():
        valid = 0
        for index in range(ops):
            valid += proofs[index % len(proofs)].is_valid(
                registry, required, allowed_signers=node_ids
            )
        return {"proofs": len(proofs), "required": required}

    return operation, ops


# ----------------------------------------------------------------------
# Simulator heap churn
# ----------------------------------------------------------------------
def _make_heap_churn(seed: int):
    def operation():
        sim = Simulator(seed=seed)
        rng = random.Random(seed)
        fired = [0]

        def bump() -> None:
            fired[0] += 1

        events = [
            sim.schedule(rng.uniform(0.0, 1_000.0), bump)
            for _ in range(_CHURN_EVENTS)
        ]
        # Cancel every other event — the timer-churn pattern PBFT
        # view-timeout management produces.
        for event in events[::2]:
            event.cancel()
        sim.run()
        return {
            "fired": fired[0],
            "cancelled": _CHURN_EVENTS - fired[0],
            "compactions": sim.compactions,
        }

    return operation, _CHURN_EVENTS


# ----------------------------------------------------------------------
# Flight-recorder journal
# ----------------------------------------------------------------------
def _make_journal_append(seed: int):
    """Cost of one ``obs.event(...)`` through the production seam — a
    clock-bound forensics hub, called the way the PBFT vote handlers
    call it — i.e. the per-event price the flight recorder adds to
    every instrumented hot path. The ring is sized below the op count
    so steady-state eviction is part of the measurement."""
    from repro.obs.hub import Observability

    rng = random.Random(seed)
    digests = [f"{rng.randrange(1 << 64):016x}" for _ in range(_CORPUS)]
    ops = 10_000

    def operation():
        obs = Observability(forensics=True, max_events=4_096)
        obs.bind_clock(Simulator(seed=seed))
        for index in range(ops):
            obs.event(
                "pbft.vote",
                participant="C",
                node=f"C-{index & 3}",
                trace=None,
                phase="prepare",
                view=0,
                seq=index,
                digest=digests[index % _CORPUS],
                voter=f"C-{index & 3}",
                src=f"C-{index & 3}",
            )
        return {
            "recorded": obs.journal.recorded,
            "dropped": obs.journal.dropped,
        }

    return operation, ops


def _make_console_render(seed: int):
    """Full operator-console pipeline over the canonical 140-event
    lifecycle journal: fold the hub into a ``repro.console/v1`` bundle
    (topology recovery + schema check) and render the self-contained
    HTML replay. The traced run itself happens once in setup, untimed —
    the benchmark isolates what ``python -m repro console`` adds on top
    of a finished run."""
    from repro.obs.console.bundle import build_bundle
    from repro.obs.console.render import render_html
    from repro.obs.demo import trace_commit_lifecycle
    from repro.obs.hub import Observability

    del seed  # the lifecycle demo is deterministic
    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)
    ops = 20

    def operation():
        total = 0
        for _ in range(ops):
            total += len(render_html(build_bundle(obs)))
        return {"bytes": total // ops}

    return operation, ops


# ----------------------------------------------------------------------
# Wire
# ----------------------------------------------------------------------
def _sealed(seed: int) -> List[SealedTransmission]:
    registry, node_ids, _digests = _registry_and_digests(seed)
    sealed = []
    for record in _records(seed):
        digest = record.digest()
        proof = QuorumProof.build(
            digest, [sign(registry, node_id, digest) for node_id in node_ids[:2]]
        )
        sealed.append(SealedTransmission(record=record, proof=proof))
    return sealed


def _make_wire_encode(seed: int):
    """The production wire seam: generated positional codec with the
    identity-keyed encode memo (the broadcast fan-out hot path — the
    same frozen ``SealedTransmission`` is serialized once per
    destination). The ``--disable-caches`` control pass measures the
    same seam cold; ``micro.wire.encode_legacy`` is the hand-written
    dict-walking baseline this replaced."""
    sealed = _sealed(seed)
    ops = 1_000

    def operation():
        total = 0
        for index in range(ops):
            total += len(encode_wire(sealed[index % len(sealed)]))
        return {"bytes": total}

    return operation, ops


def _make_wire_decode(seed: int):
    sealed = _sealed(seed)
    encoded = [encode_wire(item) for item in sealed]
    ops = 1_000

    def operation():
        for index in range(ops):
            decode_wire(encoded[index % len(encoded)])
        return {"documents": len(encoded)}

    return operation, ops


def _make_wire_legacy_encode(seed: int):
    """The pre-codec reference path (``core/wire.py``), kept benchmarked
    so the codec speedup is measured inside one run — the CI bench-smoke
    gate asserts ``micro.wire.encode`` ≥3× this."""
    sealed = _sealed(seed)
    ops = 1_000

    def operation():
        total = 0
        for index in range(ops):
            total += len(to_json(encode_sealed(sealed[index % len(sealed)])))
        return {"bytes": total}

    return operation, ops


def _make_wire_legacy_decode(seed: int):
    encoded = [to_json(encode_sealed(item)) for item in _sealed(seed)]
    ops = 1_000

    def operation():
        for index in range(ops):
            decode_sealed(from_json(encoded[index % len(encoded)]))
        return {"documents": len(encoded)}

    return operation, ops


#: The registered micro suite, in execution order.
BENCHMARKS = [
    Benchmark("micro.digest.stable", "micro", _make_digest_stable),
    Benchmark("micro.digest.cached", "micro", _make_digest_cached),
    Benchmark("micro.crypto.sign", "micro", _make_crypto_sign),
    Benchmark("micro.crypto.verify", "micro", _make_crypto_verify),
    Benchmark("micro.proof.check", "micro", _make_proof_check),
    Benchmark("micro.sim.heap_churn", "micro", _make_heap_churn),
    Benchmark("micro.obs.journal_append", "micro", _make_journal_append),
    Benchmark("micro.obs.console_render", "micro", _make_console_render),
    Benchmark("micro.wire.encode", "micro", _make_wire_encode),
    Benchmark("micro.wire.decode", "micro", _make_wire_decode),
    Benchmark("micro.wire.encode_legacy", "micro", _make_wire_legacy_encode),
    Benchmark("micro.wire.decode_legacy", "micro", _make_wire_legacy_decode),
]
