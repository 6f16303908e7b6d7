"""Cryptographic primitives for Blockplane proofs.

The paper's system model assumes a permissioned setting where "the set
of nodes and their public keys are known to all nodes". We model that
PKI with a :class:`KeyRegistry` of per-node secrets and HMAC-SHA256
signatures: honest verifiers look the signer's key up in the registry,
and a byzantine node cannot forge another node's signature because it
does not hold that node's secret (the registry is only consulted through
:func:`repro.crypto.signatures.sign` /
:func:`repro.crypto.signatures.verify`).

The paper's prototype deliberately *excluded* signature computation from
its benchmarks (Section VIII); our latency model likewise charges zero
time for signing by default, but the checks themselves are real and are
exercised by the byzantine-behaviour tests.
"""

from repro.crypto.digest import cached_digest, stable_digest
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import Signature, QuorumProof, sign, verify

__all__ = [
    "cached_digest",
    "stable_digest",
    "KeyRegistry",
    "Signature",
    "QuorumProof",
    "sign",
    "verify",
]
