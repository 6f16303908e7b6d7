"""The trusted key registry (the deployment's PKI).

Blockplane is permissioned: the application administrator launches every
node and distributes key material, so "the set of nodes and their public
keys are known to all nodes" (Section III-B). :class:`KeyRegistry`
models that setup step. Each node gets a random per-node secret; the
signature layer derives MACs from it. In a real deployment these would
be asymmetric key pairs — the trust and quorum arithmetic is identical.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable

from repro.crypto.caches import KeyedLRU
from repro.errors import CryptoError


class KeyRegistry:
    """Maps node ids to signing secrets.

    The registry also owns the signature-verification memo for its key
    material (see :func:`repro.crypto.signatures.verify`): verdicts are
    a pure function of ``(signer, digest, mac)`` *and* the registered
    secrets, so any mutation of the key set — a new registration —
    drops every cached verdict. That wholesale invalidation
    is what makes negative caching safe: "unknown signer" can never
    outlive the registration that would change the answer.

    Args:
        seed: Deterministic seed so a deployment's keys are reproducible.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._keys: Dict[str, bytes] = {}
        #: Mutation counter; bumped whenever any secret (dis)appears.
        self.version = 0
        #: Bounded memo of verification verdicts under the current keys.
        self.verification_cache = KeyedLRU(maxsize=16384)

    def _invalidate(self) -> None:
        self.version += 1
        self.verification_cache.clear()

    def register(self, node_id: str) -> bytes:
        """Create (or return) the secret for ``node_id``."""
        if node_id not in self._keys:
            material = f"key/{self._seed}/{node_id}".encode()
            self._keys[node_id] = hashlib.sha256(material).digest()
            self._invalidate()
        return self._keys[node_id]

    def register_all(self, node_ids: Iterable[str]) -> None:
        """Register a batch of nodes."""
        for node_id in node_ids:
            self.register(node_id)

    def secret_for(self, node_id: str) -> bytes:
        """The signing secret of a registered node.

        Raises:
            CryptoError: If the node was never registered — signatures
                from unknown identities must never verify.
        """
        try:
            return self._keys[node_id]
        except KeyError:
            raise CryptoError(f"no key registered for node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._keys
