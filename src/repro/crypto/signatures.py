"""Signatures and quorum proofs.

A Blockplane *proof* is a set of ``fi + 1`` signatures from one unit
over the same digest: since at most ``fi`` unit members are byzantine,
any valid proof contains at least one honest signature, which is what
Lemmas 1–3 of the paper lean on. :class:`QuorumProof` packages that
check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import hmac
from typing import Iterable, Optional, Sequence, Set

from repro.crypto.keys import KeyRegistry


@dataclasses.dataclass(frozen=True)
class Signature:
    """An HMAC signature by one node over one digest.

    Attributes:
        signer: Node id of the signer.
        digest: Hex digest the signature covers.
        mac: Hex HMAC-SHA256 of the digest under the signer's secret.
    """

    signer: str
    digest: str
    mac: str

    SIZE_BYTES = 96  # signer id + 32-byte digest + 32-byte mac, roughly

    def size_bytes(self) -> int:
        """Approximate wire size of a serialized signature."""
        return self.SIZE_BYTES


def sign(registry: KeyRegistry, signer: str, digest: str) -> Signature:
    """Sign ``digest`` with ``signer``'s registered secret."""
    secret = registry.secret_for(signer)
    mac = hmac.new(secret, digest.encode(), hashlib.sha256).hexdigest()
    return Signature(signer=signer, digest=digest, mac=mac)


def _verify_uncached(
    registry: KeyRegistry, signer: str, digest: str, mac: str
) -> bool:
    """Recompute one HMAC verdict from the registry's current keys."""
    if signer not in registry:
        return False
    secret = registry.secret_for(signer)
    expected = hmac.new(secret, digest.encode(), hashlib.sha256).hexdigest()
    return hmac.compare_digest(expected, mac)


def verify(registry: KeyRegistry, signature: Signature, digest: str) -> bool:
    """Check that ``signature`` covers ``digest`` and verifies.

    Unknown signers verify as False (not an exception): a byzantine
    node may claim any identity, and the honest path must treat that as
    an invalid signature rather than crash.

    Verdicts are memoized per registry, keyed by the full
    ``(signer, digest, mac)`` triple: a forged mac over an
    honestly-signed digest is a *different* key and is always
    recomputed (to False). Any registry mutation (a registration)
    clears the memo, so stale verdicts (positive or negative) never
    survive a key change. The memo is therefore
    semantically invisible.
    """
    if signature.digest != digest:
        return False
    signer, mac = signature.signer, signature.mac
    return registry.verification_cache.get(
        (signer, digest, mac),
        lambda: _verify_uncached(registry, signer, digest, mac),
    )


@dataclasses.dataclass(frozen=True)
class QuorumProof:
    """A set of signatures over one digest, e.g. the ``fi + 1``
    signatures a communication daemon attaches to a transmission record.

    Attributes:
        digest: The digest every signature must cover.
        signatures: The collected signatures (order-insensitive).
    """

    digest: str
    signatures: tuple

    @classmethod
    def build(cls, digest: str, signatures: Iterable[Signature]) -> "QuorumProof":
        """Construct a proof from collected signatures."""
        return cls(digest=digest, signatures=tuple(signatures))

    def valid_signers(
        self,
        registry: KeyRegistry,
        allowed_signers: Optional[Sequence[str]] = None,
        required: Optional[int] = None,
    ) -> Set[str]:
        """Distinct signers whose signatures verify (optionally limited
        to an allowed set, e.g. the source participant's unit).

        Args:
            required: Early-exit threshold. When given, scanning stops
                as soon as this many distinct valid signers are found —
                the quorum question is already answered, so the
                remaining signatures need not be verified. The returned
                set may then be a subset of all valid signers; callers
                that need the complete set must leave this unset.
        """
        allowed = set(allowed_signers) if allowed_signers is not None else None
        signers: Set[str] = set()
        for signature in self.signatures:
            if allowed is not None and signature.signer not in allowed:
                continue
            if signature.signer in signers:
                continue  # duplicate signer: no new information
            if verify(registry, signature, self.digest):
                signers.add(signature.signer)
                if required is not None and len(signers) >= required:
                    break
        return signers

    def is_valid(
        self,
        registry: KeyRegistry,
        required: int,
        allowed_signers: Optional[Sequence[str]] = None,
    ) -> bool:
        """At least ``required`` distinct valid signers (stops verifying
        once that many are found)."""
        signers = self.valid_signers(
            registry, allowed_signers, required=required
        )
        return len(signers) >= required

    def size_bytes(self) -> int:
        """Approximate wire size of the serialized proof."""
        return sum(signature.size_bytes() for signature in self.signatures)
