"""PBFT protocol messages.

Payload-carrying messages (:class:`ClientRequest`, :class:`PrePrepare`,
catch-up responses, new-view retransmissions) charge their batch size to
the network's bandwidth model; vote messages (:class:`Prepare`,
:class:`Commit`, :class:`Reply`, :class:`Checkpoint`) carry only digests
and are charged as control traffic.

The Blockplane modification is visible here as the ``record_type``
annotation on every proposal (Section IV-B: "every value has a type
annotation that represents the type of the record").
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.node import Message

#: Record-type annotations (Blockplane modification #1). The middleware
#: defines richer semantics for these in :mod:`repro.core.records`.
RECORD_TYPE_COMMIT = "log-commit"
RECORD_TYPE_COMMUNICATION = "communication"
RECORD_TYPE_RECEIVED = "received"


@dataclasses.dataclass(frozen=True)
class CommittedEntry:
    """An entry durably committed by the PBFT group.

    Attributes:
        seq: Position in the group's ordered log (1-based).
        view: View in which the entry committed.
        value: The application value (opaque to PBFT).
        record_type: Blockplane record-type annotation.
        meta: Free-form metadata the submitter attached (e.g. the
            destination participant of a communication record).
        payload_bytes: Size charged to the bandwidth model.
        request_id: The originating client request, so replicas that
            adopt the entry through catch-up can still recognise a
            later re-commit of the same request as a duplicate.
    """

    seq: int
    view: int
    value: Any
    record_type: str
    meta: Optional[Dict[str, Any]] = None
    payload_bytes: int = 0
    request_id: Tuple[str, int] = ("", 0)


@dataclasses.dataclass(slots=True)
class ClientRequest(Message):
    """Submit a value for commitment (client/submitter → leader).

    ``trace`` is an optional observability context
    (``(trace_id, parent_span_id)``) propagated into the pre-prepare so
    every replica can attribute the slot's phases to the originating
    commit's trace. It is metadata only — never signed or digested.
    """

    request_id: Tuple[str, int] = ("", 0)
    value: Any = None
    record_type: str = RECORD_TYPE_COMMIT
    meta: Optional[Dict[str, Any]] = None
    trace: Optional[Tuple[int, int]] = None


@dataclasses.dataclass(slots=True)
class PrePrepare(Message):
    """Leader's ordering proposal (leader → all replicas)."""

    view: int = 0
    seq: int = 0
    digest: str = ""
    request_id: Tuple[str, int] = ("", 0)
    value: Any = None
    record_type: str = RECORD_TYPE_COMMIT
    meta: Optional[Dict[str, Any]] = None
    trace: Optional[Tuple[int, int]] = None


@dataclasses.dataclass(slots=True)
class Prepare(Message):
    """Replica's echo of the proposal digest (replica → all)."""

    view: int = 0
    seq: int = 0
    digest: str = ""
    replica: str = ""


@dataclasses.dataclass(slots=True)
class Commit(Message):
    """Replica's commit vote, sent after the verification routine
    accepts the prepared value (replica → all)."""

    view: int = 0
    seq: int = 0
    digest: str = ""
    replica: str = ""


@dataclasses.dataclass(slots=True)
class Reply(Message):
    """Execution acknowledgement (replica → request origin). The origin
    accepts a request as committed after ``f + 1`` matching replies."""

    view: int = 0
    seq: int = 0
    digest: str = ""
    request_id: Tuple[str, int] = ("", 0)
    replica: str = ""


@dataclasses.dataclass(slots=True)
class RejectRequest(Message):
    """Leader's refusal to propose a request (failed pre-validation,
    e.g. a duplicate transmission record or an invalid transition).
    The origin's submit future is rejected instead of timing out."""

    request_id: Tuple[str, int] = ("", 0)
    reason: str = ""
    replica: str = ""


@dataclasses.dataclass(slots=True)
class Checkpoint(Message):
    """Periodic state summary enabling log truncation (replica → all).

    Attributes:
        seq: Watermark sequence number (a multiple of the group's
            checkpoint interval).
        state_digest: Execution chain head after executing ``seq``.
        snapshot_digest: Digest of the middleware snapshot the watermark
            folds to (Blockplane: the Local Log's
            :class:`~repro.core.records.LogSnapshot`; "" for plain PBFT
            groups with no snapshot payload).
        signature: Signature over
            :func:`~repro.pbft.replica.checkpoint_digest`, so a quorum
            of matching votes forms a *transferable* certificate (None
            for unsigned plain-PBFT groups).
        replica: Voting replica.
    """

    seq: int = 0
    state_digest: str = ""
    snapshot_digest: str = ""
    signature: Any = None
    replica: str = ""


@dataclasses.dataclass(frozen=True)
class CheckpointCertificate:
    """A stable checkpoint: a quorum of matching checkpoint votes.

    With signed votes this is transferable evidence — a recovering
    replica can trust a certificate carrying ``f + 1`` valid signatures
    from group members (at least one honest) and install the certified
    snapshot instead of replaying the log from position 1.

    Attributes:
        seq: The certified watermark.
        state_digest: The agreed execution chain head at ``seq``.
        snapshot_digest: The agreed snapshot digest at ``seq``.
        signatures: ``(replica, signature)`` pairs from the matching
            votes (empty for unsigned groups — such certificates are
            local book-keeping only and never convince a peer).
    """

    seq: int
    state_digest: str
    snapshot_digest: str
    signatures: Tuple[Tuple[str, Any], ...] = ()


@dataclasses.dataclass(slots=True)
class PreparedCertificate(Message):
    """Evidence inside a view change that a slot was prepared."""

    view: int = 0
    seq: int = 0
    digest: str = ""
    value: Any = None
    record_type: str = RECORD_TYPE_COMMIT
    meta: Optional[Dict[str, Any]] = None
    request_id: Tuple[str, int] = ("", 0)
    #: Observability trace context of the originating commit; metadata
    #: only (never digested or signed). Carried so a commit surviving a
    #: leader failover re-proposes into the *same* trace tree.
    trace: Optional[Tuple[int, int]] = None


@dataclasses.dataclass(slots=True)
class ViewChange(Message):
    """Vote to replace the current leader (replica → all)."""

    new_view: int = 0
    last_executed: int = 0
    prepared: List[PreparedCertificate] = dataclasses.field(default_factory=list)
    replica: str = ""


@dataclasses.dataclass(slots=True)
class NewView(Message):
    """New leader's announcement, re-proposing prepared slots."""

    new_view: int = 0
    pre_prepares: List[PrePrepare] = dataclasses.field(default_factory=list)
    replica: str = ""


@dataclasses.dataclass(slots=True)
class CatchUpRequest(Message):
    """A lagging/recovered replica asks peers for committed entries."""

    from_seq: int = 0
    replica: str = ""


@dataclasses.dataclass(slots=True)
class CatchUpResponse(Message):
    """Committed entries above the requester's execution point, and the
    responder's view. A requester behind the responder's retained log
    also gets the stable checkpoint certificate and its snapshot payload
    (Blockplane: a :class:`~repro.core.records.LogSnapshot`); the
    entries then start above the certificate's watermark."""

    entries: List[CommittedEntry] = dataclasses.field(default_factory=list)
    view: int = 0
    replica: str = ""
    certificate: Optional[CheckpointCertificate] = None
    snapshot: Any = None
