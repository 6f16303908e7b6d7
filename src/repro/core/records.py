"""Local Log record types.

The paper's Local Log contains two kinds of events (Section III-B):

* **Log-commit records** persist a state change of the wrapped protocol
  ``P`` — written through the ``log-commit`` interface.
* **Communication records** represent a message from this participant
  to another — written through the ``send`` interface.

Two further kinds arise inside the middleware:

* **Received records** — a remote participant's transmission record
  committed into the local log after passing the receive verification
  routine (Section IV-C).
* **Mirror records** — another participant's committed entry mirrored
  here for geo-correlated fault tolerance (Section V).

A :class:`TransmissionRecord` is the wide-area envelope: the
communication record's content, its position in the source Local Log, a
pointer to the *previous* communication record to the same destination
(so the receiver can detect withheld messages), and an ``fi + 1``
signature proof from the source unit.

Every record's ``digest()`` folds its (potentially large) application
value in as ``cached_digest(value)``: the value object is shared *by
reference* across every replica that re-derives the record (signers
rebuilding a TransmissionRecord in ``_attest``, verifying replicas,
mirror construction), so it is canonicalized once per object. The
remaining tuple of a few exact strings and ints (plus ``meta``) is
rebuilt by every replica; ``formula_digest`` keys it by content, so a
unit walks it once. Both memos return what ``stable_digest`` would.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple

from repro.crypto.digest import cached_digest, formula_digest
from repro.crypto.signatures import QuorumProof

#: Record-type annotations carried through PBFT (Section IV-B).
RECORD_LOG_COMMIT = "log-commit"
RECORD_COMMUNICATION = "communication"
RECORD_RECEIVED = "received"
RECORD_MIRROR = "mirror"
#: A committed truncation marker: fold every Local Log entry below the
#: carried position into the unit's stable snapshot. Proposed by the
#: gateway once a checkpoint certificate is stable, verified by every
#: unit member against its *own* certificate before it votes.
RECORD_TRUNCATE = "truncate"
#: Several API records a gateway received in one virtual instant,
#: ordered in one PBFT slot: a tuple of ``(record_type, value, sorted
#: meta items, payload_bytes)``, one per record in submission order.
#: Never a Local Log record type: every replica unrolls it at apply
#: time into one entry per record.
RECORD_BATCH = "batch"
#: The record types a batch may carry: the stateless ones, whose
#: verification does not depend on the slots before them.
BATCHABLE = frozenset((RECORD_LOG_COMMIT, RECORD_COMMUNICATION))


@dataclasses.dataclass(frozen=True)
class LogEntry:
    """One entry of a participant's Local Log (``L_i[j]`` in the paper).

    Attributes:
        position: 1-based position in the Local Log.
        record_type: One of the ``RECORD_*`` constants.
        value: The record body. For communication records this is the
            application message; for received records it is the
            :class:`TransmissionRecord`.
        meta: Middleware metadata (e.g. ``destination`` for
            communication records).
        payload_bytes: Size charged to the bandwidth model.
    """

    position: int
    record_type: str
    value: Any
    meta: Optional[Dict[str, Any]] = None
    payload_bytes: int = 0

    @property
    def destination(self) -> Optional[str]:
        """Destination participant of a communication record, if any."""
        if self.meta:
            return self.meta.get("destination")
        return None

    def digest(self) -> str:
        """Canonical digest of the entry's identity and content."""
        return formula_digest(
            (self.position, self.record_type, cached_digest(self.value), self.meta)
        )


@dataclasses.dataclass(frozen=True)
class TransmissionRecord:
    """The wide-area envelope for one communication record (``P`` in
    Algorithm 2 of the paper).

    Attributes:
        source: Sending participant's name.
        destination: Receiving participant's name.
        message: The application message being delivered.
        source_position: Position of the communication record in the
            source's Local Log.
        prev_position: Position of the *previous* communication record
            from the same source to the same destination (None for the
            first). The receiver verifies the chain has no gaps.
        payload_bytes: Application payload size.
    """

    source: str
    destination: str
    message: Any
    source_position: int
    prev_position: Optional[int]
    payload_bytes: int = 0

    def digest(self) -> str:
        """Digest covered by the source unit's ``fi + 1`` signatures
        (the formula deliberately excludes ``payload_bytes``)."""
        return formula_digest(
            (
                self.source,
                self.destination,
                cached_digest(self.message),
                self.source_position,
                self.prev_position,
            )
        )


@dataclasses.dataclass(frozen=True)
class SealedTransmission:
    """A transmission record together with its proofs.

    Attributes:
        record: The transmission record.
        proof: ``fi + 1`` signatures from the source unit over
            ``record.digest()``.
        geo_proofs: When ``fg > 0``, per-participant proofs showing the
            underlying entry was mirrored by ``fg`` other participants
            (participant name → that unit's ``fi + 1``-signature proof).
    """

    record: TransmissionRecord
    proof: QuorumProof
    geo_proofs: Tuple[Tuple[str, QuorumProof], ...] = ()

    def size_bytes(self) -> int:
        """Wire size: payload + all attached proofs."""
        size = self.record.payload_bytes + self.proof.size_bytes()
        for _participant, proof in self.geo_proofs:
            size += proof.size_bytes()
        return size


@dataclasses.dataclass(frozen=True)
class LogSnapshot:
    """The folded prefix of a Local Log (everything below a stable
    checkpoint's watermark), compressed to what the middleware still
    needs from those entries:

    * the digest chain head over the folded entries (so two snapshots
      of the same prefix are comparable without the entries), and
    * the per-destination communication chain heads that keep
      ``previous_communication_position`` answering identically across
      the truncation boundary, plus the owning node's per-source
      reception floors (a recovering node resumes receiving from them).

    Attributes:
        participant: Owning participant.
        base_position: First position *not* folded (entries at
            ``position < base_position`` are covered by this snapshot).
        entry_chain: Digest chain head after folding positions
            ``1 .. base_position - 1``.
        comm_heads: Per destination, the position of the last folded
            communication record (sorted tuple of pairs).
        reception_floors: Per source, the highest source position the
            node had applied (sorted tuple of pairs); a node restored
            from the snapshot treats every position at or below it as
            received.
    """

    participant: str
    base_position: int
    entry_chain: str
    comm_heads: Tuple[Tuple[str, int], ...] = ()
    reception_floors: Tuple[Tuple[str, int], ...] = ()

    def digest(self) -> str:
        """Canonical digest; this is what a checkpoint certificate
        certifies as ``snapshot_digest``."""
        return formula_digest(
            (
                self.participant,
                self.base_position,
                self.entry_chain,
                self.comm_heads,
                self.reception_floors,
            )
        )


@dataclasses.dataclass(frozen=True)
class MirrorEntry:
    """A source participant's entry as shipped to a mirror.

    Attributes:
        source: Participant whose Local Log the entry belongs to.
        position: The entry's position in the source Local Log.
        record_type: Original record type at the source.
        value: Entry body.
        meta: Original metadata.
    """

    source: str
    position: int
    record_type: str
    value: Any
    meta: Optional[Dict[str, Any]] = None

    @classmethod
    def of(cls, participant: str, entry: LogEntry) -> "MirrorEntry":
        """``participant``'s Local Log ``entry`` as shipped to its
        mirrors (what the gateway gathers proofs over and every unit
        member re-derives before attesting)."""
        return cls(
            source=participant,
            position=entry.position,
            record_type=entry.record_type,
            value=entry.value,
            meta=entry.meta,
        )

    def digest(self) -> str:
        """Digest covered by mirror proofs."""
        return formula_digest(
            (
                self.source,
                self.position,
                self.record_type,
                cached_digest(self.value),
                self.meta,
            )
        )
