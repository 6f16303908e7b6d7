"""The Blockplane node: a unit member's full runtime.

Each participant runs ``3·fi + 1`` of these. A node is simultaneously:

* the host of its unit's **PBFT engine** (local commitment,
  Section IV-B) and the *app* that engine consults,
* a **Local Log** holder applying every executed entry,
* a **signer** attesting transmission/mirror records it can verify
  against its own log copy (Section IV-C),
* a **receiver** of wide-area transmission records, which it funnels
  into local commitment guarded by the built-in receive verification
  routine, and
* a **mirror** of other participants' entries when ``fg > 0``
  (Section V).

The communication daemons and geo coordinator are separate objects that
*run on* a node (:mod:`repro.core.daemon`, :mod:`repro.core.geo`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.config import BlockplaneConfig
from repro.core.directory import Directory
from repro.core.local_log import LocalLog
from repro.core.messages import (
    GapQuery,
    GapResponse,
    MirrorResponse,
    ReadRequest,
    ReadResponse,
    SignRequest,
    SignResponse,
    TransmissionAck,
    TransmissionMessage,
)
from repro.core.records import (
    BATCHABLE,
    LogEntry,
    LogSnapshot,
    MirrorEntry,
    RECORD_BATCH,
    RECORD_COMMUNICATION,
    RECORD_LOG_COMMIT,
    RECORD_MIRROR,
    RECORD_RECEIVED,
    RECORD_TRUNCATE,
    SealedTransmission,
    TransmissionRecord,
)
from repro.core.verification import VerificationRoutines
from repro.crypto.signatures import QuorumProof, sign, verify
from repro.pbft.messages import (
    CheckpointCertificate,
    ClientRequest,
    CommittedEntry,
)
from repro.pbft.engine import NOOP_RECORD_TYPE, checkpoint_digest
from repro.pbft.replica import PBFTReplica
from repro.sim.process import Future

#: How long a signature collection waits before re-asking the unit
#: (covers crashed or silent members).
SIGN_TIMEOUT_MS = 10.0


@dataclass(slots=True)
class _Reception:
    """What a node holds about one remote participant's transmissions
    to it: the receive verification routine's duplicate and gap answers
    (Section IV-C), chain-order delivery, and the proposal bookkeeping."""

    #: Highest source position voted for or applied (the vote gate).
    head: int = 0
    #: Chain head delivered to ``receive()``.
    delivered: int = 0
    #: Applied records whose predecessor has not applied yet, keyed by
    #: that predecessor, so the next one to deliver is one lookup away.
    pending: Dict[int, TransmissionRecord] = field(default_factory=dict)
    #: Delivered messages ``receive()`` has not returned yet.
    buffer: deque = field(default_factory=deque)
    #: Digest voted per position not yet delivered.
    voted: Dict[int, str] = field(default_factory=dict)
    #: Positions this node proposed as leader in the current view.
    proposed: set = field(default_factory=set)
    #: This node's own in-flight submissions: position -> request id.
    submitted: Dict[int, Tuple[str, int]] = field(default_factory=dict)


class _SignatureCollector:
    """Gathers ``fi + 1`` signatures over one digest."""

    def __init__(self, future: Future, required: int, digest: str) -> None:
        self.future = future
        self.required = required
        self.digest = digest
        self.signatures: Dict[str, Any] = {}
        #: The armed re-broadcast timer; cancelled when the quorum
        #: completes (in the healthy path that happens within one local
        #: round-trip, a tiny fraction of the sign timeout).
        self.timer: Any = None

    def add(self, signer: str, signature: Any) -> None:
        self.signatures[signer] = signature
        if len(self.signatures) >= self.required and not self.future.resolved:
            self.future.resolve(
                QuorumProof.build(self.digest, self.signatures.values())
            )
            if self.timer is not None:
                self.timer.cancel()
                self.timer = None


class BlockplaneNode(PBFTReplica):
    """One member of a participant's Blockplane unit.

    Args:
        sim: Owning simulator.
        network: Transport.
        node_id: Unique id (convention: ``"<participant>-<index>"``).
        participant: Name of the participant (== site name).
        peers: Node ids of the whole unit, including this node.
        config: Deployment configuration.
        directory: Shared membership/keys.
        routines: User verification routines for this participant.
    """

    def __init__(
        self,
        sim,
        network,
        node_id: str,
        participant: str,
        peers: List[str],
        config: BlockplaneConfig,
        directory: Directory,
        routines: VerificationRoutines,
        obs=None,
    ) -> None:
        super().__init__(
            sim,
            network,
            node_id,
            site=participant,
            peers=peers,
            config=config.pbft,
            obs=obs,
        )
        self.participant = participant
        self.bp_config = config
        self.directory = directory
        self.routines = routines
        directory.registry.register(node_id)
        self.local_log = LocalLog(participant, obs=self.obs, node_id=node_id)
        # Per-source reception counters, resolved once instead of per
        # applied reception (registry lookups are hot at apply time).
        self._reception_counters: Dict[str, Any] = {}
        self.mirror_logs: Dict[str, List[MirrorEntry]] = {}
        #: One reception record per remote participant.
        self.receptions: Dict[str, _Reception] = {}
        self._reception_waiters: List[Tuple[Optional[str], Future]] = []
        #: Callbacks fired for every appended Local Log entry (daemons,
        #: geo coordinator, application apply functions hook in here).
        self.on_log_append: List[Callable[[LogEntry], None]] = []
        self._mirror_seen: set = set()
        self._proposed_mirrors: set = set()
        self._sign_collectors: Dict[Tuple[int, str, str], _SignatureCollector] = {}
        #: Requests our log has not reached yet, once each, keyed by
        #: (src, position, digest, purpose).
        self._deferred_sign_requests: Dict[
            Tuple[str, int, str, str], SignRequest
        ] = {}
        #: Set by :class:`repro.core.geo.GeoCoordinator` when attached.
        self.geo = None
        #: Reserve daemons running on this node (route gap responses).
        self.reserves: List[Any] = []
        #: Communication daemons running on this node (route
        #: transmission acks so retransmission timers can be cancelled).
        self.comm_daemons: List[Any] = []
        self._mirror_by_digest: Dict[str, MirrorEntry] = {}
        self._mirror_applied_waiters: Dict[Tuple[str, int], List[Future]] = {}
        self._mirror_response_waiters: Dict[Tuple[str, int], Future] = {}
        #: PBFT seq → Local Log position of the slot's last entry (a
        #: batch slot holds several consecutive ones).
        self._seq_to_position: Dict[int, int] = {}
        #: seq → (entries after the awaited one in its slot, future).
        self._position_waiters: Dict[int, List[Tuple[int, Future]]] = {}
        #: Gateway batching: the virtual instant of the last record
        #: submitted alone, and the records queued behind it in that
        #: instant as ``((value, record_type, meta, payload_bytes),
        #: trace_ctx, future)`` for the zero-delay batch event.
        self._alone_at = float("-inf")
        self._queued: List[Tuple[tuple, Any, Future]] = []
        #: Gateway, tracing on: batch request id → each record's trace
        #: context (None when untraced), until the slot executes here.
        self._batch_traces: Dict[Tuple[str, int], tuple] = {}
        self._read_counter = 0
        self._read_collectors: Dict[Tuple[str, int], Dict[str, Any]] = {}
        #: Gateway-only guard: a truncation proposal is outstanding.
        self._truncate_inflight = False
        self.engine.on_executed.append(self._apply_entry)

    # ------------------------------------------------------------------
    # Local commitment entry points
    # ------------------------------------------------------------------
    def local_commit(
        self,
        value: Any,
        record_type: str,
        meta: Optional[Dict[str, Any]] = None,
        payload_bytes: int = 0,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> Future:
        """Commit a value to the unit's Local Log via PBFT.

        This is the paper's Blockplane-level ``local-commit``
        instruction. Returns a future resolving with the
        :class:`~repro.pbft.messages.CommittedEntry`.
        """
        return self.submit(value, record_type, meta, payload_bytes, trace_ctx)

    def commit_record(
        self,
        value: Any,
        record_type: str,
        meta: Optional[Dict[str, Any]],
        payload_bytes: int,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> Future:
        """The gateway's side of an API commit (``log_commit``, ``send``,
        the read marker): local-commit one record and resolve with
        ``(seq, offset)`` — the PBFT slot it committed in and how many
        entries follow it there — for :meth:`position_future`.

        The first record of a virtual instant is submitted alone, as a
        plain request. Later ones in the same instant queue, and one
        zero-delay event submits them together as one ``batch`` request:
        one slot, whose vote traffic the whole burst shares.
        """
        future = Future(self.sim, label="commit")
        record = (value, record_type, meta, payload_bytes)
        # The virtual clock never goes back: "not later" is "the same".
        if self.sim.now > self._alone_at:
            self._alone_at = self.sim.now
            self._submit_alone(record, trace_ctx, future)
            return future
        if not self._queued:
            # Not a node timer: a crash must not strand the queue. The
            # records then meet the crashed engine as plain submits would.
            self.sim.schedule(0.0, self._submit_batch)
        self._queued.append((record, trace_ctx, future))
        return future

    def _submit_alone(
        self, record: tuple, trace_ctx: Optional[Tuple[int, int]], future: Future
    ) -> None:
        """Local-commit one record as a plain request; settle
        ``future`` as ``(seq, 0)`` once it commits."""

        def _done(completed: Future) -> None:
            if completed.exception is not None:
                future.reject(completed.exception)
            else:
                future.resolve((completed.result().seq, 0))

        self.local_commit(*record, trace_ctx).add_done_callback(_done)

    def _submit_batch(self) -> None:
        """Submit the instant's queued records as one ``batch`` request
        (a lone one as a plain request). A refused batch is resubmitted
        record by record, so each gets its own verdict."""
        queued, self._queued = self._queued, []
        if len(queued) == 1:
            self._submit_alone(*queued[0])
            return
        records = tuple(
            (record_type, value, tuple(sorted((meta or {}).items())), size)
            for (value, record_type, meta, size), _trace, _future in queued
        )
        request_id, batch = self.engine.submit(
            records, RECORD_BATCH, None, sum(record[3] for record in records)
        )
        traces = tuple(trace for _record, trace, _future in queued)
        traced = self.obs.tracing and any(traces)
        if traced:
            # One "pbft.consensus" span per traced record, kept with the
            # host's spans so a view change reaches them too.
            self._batch_traces[request_id] = traces
            for index, trace in enumerate(traces):
                if trace is not None:
                    self._spans[(request_id, index)] = self.obs.begin_span(
                        "pbft.consensus", trace, participant=self.site,
                        node=self.node_id, record_type=records[index][0],
                    )

        def _done(completed: Future) -> None:
            refused = completed.exception
            outcome = (
                {"rejected": str(refused)} if refused is not None
                else {"seq": completed.result().seq}
            )
            for index in range(len(queued)) if traced else ():
                span = self._spans.pop((request_id, index), None)
                if span is not None:
                    self.obs.end_span(span, **outcome)
            if refused is not None:
                self._batch_traces.pop(request_id, None)
                for item in queued:
                    self._submit_alone(*item)
                return
            for index, (_record, _trace, future) in enumerate(queued):
                future.resolve((outcome["seq"], len(queued) - 1 - index))

        batch.add_done_callback(_done)

    def slot_executed(self, entry: CommittedEntry, slot) -> None:
        """The host's phase metrics, then, for a traced batch at its
        gateway, each traced record's phase spans and apply trace."""
        super().slot_executed(entry, slot)
        traces = self._batch_traces.pop(slot.request_id, None)
        if traces is None or slot.t_pre_prepare < 0:
            return
        self._slot_traces[entry.seq] = traces
        obs, now, start = self.obs, self.sim.now, slot.t_pre_prepare
        prepared = slot.t_prepared if slot.t_prepared >= 0 else now
        common = dict(participant=self.site, node=self.node_id, seq=entry.seq)
        for index, trace in enumerate(traces):
            span = self._spans.get((slot.request_id, index))
            ctx = obs.ctx_of(span) if span is not None else trace
            if ctx is None:
                continue
            obs.complete_span("pbft.pre_prepare", start, start, ctx, **common)
            obs.complete_span("pbft.prepare", start, prepared, ctx, **common)
            obs.complete_span(
                "pbft.verify", prepared, prepared, ctx,
                record_type=entry.record_type, **common,
            )
            obs.complete_span("pbft.commit", prepared, now, ctx, **common)

    # ------------------------------------------------------------------
    # Verification dispatch (the engine's app hook)
    # ------------------------------------------------------------------
    def verify(
        self, value: Any, record_type: str, meta: Optional[Dict[str, Any]]
    ) -> Optional[bool]:
        if record_type == RECORD_BATCH:
            # False if any record fails, None (defer) if any defers.
            records = _unbatch(value)
            verdicts = [
                self.verify(item, item_type, item_meta)
                for item_type, item, item_meta, _size in records or ()
            ]
            if records is None or any(v is not None and not v for v in verdicts):
                return False
            return None if None in verdicts else True
        if record_type == RECORD_LOG_COMMIT:
            return self.routines.verify_log_commit(value, meta)
        if record_type == RECORD_COMMUNICATION:
            destination = (meta or {}).get("destination")
            if destination is None:
                return False
            return self.routines.verify_send(value, destination, meta)
        if record_type == RECORD_RECEIVED:
            return self._verify_reception(value)
        if record_type == RECORD_MIRROR:
            return self._verify_mirror(value)
        if record_type == RECORD_TRUNCATE:
            return self._verify_truncate(value, meta)
        return False

    def _verify_reception(self, sealed: Any) -> Optional[bool]:
        """The built-in receive verification routine (Section IV-C),
        chain-aware: returns None (defer) while predecessors are still
        being voted, False for invalid/duplicate records."""
        if not isinstance(sealed, SealedTransmission):
            return False
        record = sealed.record
        if record.destination != self.participant:
            return False
        digest = record.digest()
        position = record.source_position
        state = self.receptions.get(record.source)
        if state is not None and state.voted.get(position) == digest:
            return True  # idempotent re-vote (view-change re-proposal)
        # Check 1 — fi+1 valid signatures from the source unit.
        if not self.proof_valid(sealed.proof, digest, record.source):
            return False
        # Check 1b — fg participant proofs when geo tolerance is on.
        # Mirror proofs attest the *communication record* as mirrored at
        # the proving participant, so they cover the mirror-entry digest
        # (reconstructible from the transmission's contents). Each
        # participant other than the source counts once.
        if self.bp_config.f_geo > 0:
            mirror_digest = MirrorEntry(
                source=record.source,
                position=record.source_position,
                record_type=RECORD_COMMUNICATION,
                value=record.message,
                meta={"destination": record.destination},
            ).digest()
            vouching = set()
            for participant, proof in sealed.geo_proofs:
                if participant in vouching or participant == record.source:
                    continue
                if self.proof_valid(proof, mirror_digest, participant):
                    vouching.add(participant)
            if len(vouching) < self.bp_config.f_geo:
                return False
        # Checks 2 and 3 — duplicates and chain order. A *committed*
        # duplicate with a valid proof is accepted idempotently (the
        # apply step deduplicates) so a racing re-submission can never
        # stall the slot it landed in; the proof guarantees the content
        # is identical to what we already hold, because honest signers
        # only attest records matching their own log.
        if self.has_received(record.source, position):
            return True
        state = self._reception(record.source)
        head = state.head
        if position <= head:
            return False  # stale vote for a position we voted differently
        expected_prev = head if head > 0 else None
        if record.prev_position != expected_prev:
            if (record.prev_position or 0) > head:
                return None  # predecessor still in flight: defer
            return False  # inconsistent chain pointer
        # Optional application-level check.
        if not self.routines.verify_received_payload(
            record.message, record.source, {"source": record.source}
        ):
            return False
        state.head = position
        state.voted[position] = digest
        return True

    def _verify_truncate(
        self, value: Any, meta: Optional[Dict[str, Any]]
    ) -> Optional[bool]:
        """Validate a gateway's truncation proposal against our *own*
        checkpoint certificate (never trust the proposer's bound).

        Defers (None) while our stable checkpoint lags the cited one —
        deferred slots are retried on every stabilization — and rejects
        proposals that would fold positions beyond what our certificate
        covers: our stable watermark is at least the cited one, and
        snapshot bases grow monotonically with the watermark, so an
        honest proposer's bound can never exceed our certified base.
        """
        if not isinstance(value, int) or value < 1:
            return False
        checkpoint_seq = (meta or {}).get("checkpoint_seq")
        if not isinstance(checkpoint_seq, int) or checkpoint_seq < 1:
            return False
        certified = self.stable_snapshot_payload
        if self.stable_checkpoint < checkpoint_seq or not isinstance(
            certified, LogSnapshot
        ):
            return None
        if value > certified.base_position:
            return False
        return True

    def _verify_mirror(self, value: Any) -> bool:
        """Validate a geo mirror record: the source unit's proof must
        cover the entry (duplicates are accepted; apply deduplicates)."""
        if not isinstance(value, tuple) or len(value) != 2:
            return False
        entry, proof = value
        if not isinstance(entry, MirrorEntry):
            return False
        if entry.source == self.participant:
            return False  # we do not mirror ourselves
        return self.proof_valid(proof, entry.digest(), entry.source)

    def proof_valid(self, proof: Any, digest: str, participant: str) -> bool:
        """Section IV-C's unit-proof test, the one every path uses: does
        ``proof`` carry ``fi + 1`` valid signatures over ``digest`` from
        members of ``participant``'s unit? False (never an exception)
        for a malformed proof or a participant we do not know."""
        if not isinstance(proof, QuorumProof) or proof.digest != digest:
            return False
        if participant not in self.directory.participants:
            return False
        return proof.is_valid(
            self.directory.registry,
            self.bp_config.proof_size,
            allowed_signers=self.directory.unit_members(participant),
        )

    def pre_validate(self, msg: ClientRequest) -> Optional[str]:
        """Leader gate: refuse duplicates and clearly invalid values
        without burning a sequence number. Stateful reception checks are
        NOT run here (they belong to the voting path), but the source
        proof is: a reception no honest replica can verify would prepare
        and then be re-proposed by every later leader."""
        if msg.record_type == RECORD_RECEIVED:
            sealed = msg.value
            if not isinstance(sealed, SealedTransmission):
                return "malformed transmission record"
            record = sealed.record
            position = record.source_position
            state = self.receptions.get(record.source)
            if state is not None and position in state.proposed:
                return "transmission already proposed"
            if self.has_received(record.source, position):
                return "transmission already committed"
            if not self.proof_valid(sealed.proof, record.digest(), record.source):
                return "invalid transmission proof"
            self._reception(record.source).proposed.add(position)
            return None
        if msg.record_type == RECORD_MIRROR:
            if not isinstance(msg.value, tuple) or len(msg.value) != 2:
                return "malformed mirror record"
            entry = msg.value[0]
            if not isinstance(entry, MirrorEntry):
                return "malformed mirror record"
            key = (entry.source, entry.position)
            if key in self._proposed_mirrors or key in self._mirror_seen:
                return "mirror entry already proposed"
            if not self._verify_mirror(msg.value):
                return "invalid mirror proof"
            self._proposed_mirrors.add(key)
            return None
        verdict = self.verify(msg.value, msg.record_type, msg.meta)
        if verdict is False:
            return "verification routine rejected the value"
        return None

    # ------------------------------------------------------------------
    # Applying executed entries
    # ------------------------------------------------------------------
    def _apply_entry(self, committed: CommittedEntry) -> None:
        record_type = committed.record_type
        if record_type == NOOP_RECORD_TYPE:
            return
        if record_type == RECORD_MIRROR:
            self._apply_mirror(committed)
            return
        if record_type == RECORD_RECEIVED:
            record = committed.value.record
            self._reception(record.source).proposed.discard(record.source_position)
            if self.has_received(record.source, record.source_position):
                # Duplicate commit of the same transmission: every
                # honest replica skips it identically.
                return
        trace = (
            self._slot_traces.pop(committed.seq, None)
            if self.obs.enabled else None
        )
        if record_type == RECORD_BATCH:
            # One entry per record, in submission order; ``trace`` (at
            # the gateway, tracing on) holds each record's context. A
            # slot replayed by catch-up never reached ``slot_executed``.
            self._batch_traces.pop(committed.request_id, None)
            entries = [
                self._append(*record, trace[index] if trace else None)
                for index, record in enumerate(_unbatch(committed.value))
            ]
        else:
            entries = [self._append(
                record_type, committed.value, committed.meta,
                committed.payload_bytes, trace,
            )]
        position = entries[-1].position
        self._seq_to_position[committed.seq] = position
        for offset, waiter in self._position_waiters.pop(committed.seq, ()):
            if not waiter.resolved:
                waiter.resolve(position - offset)
        if record_type == RECORD_RECEIVED:
            self._apply_reception(entries[0])
        elif record_type == RECORD_TRUNCATE:
            self._apply_truncate(committed)
        for entry in entries:
            for callback in list(self.on_log_append):
                callback(entry)
        self._retry_deferred_sign_requests()

    def _append(self, record_type, value, meta, payload_bytes, trace) -> LogEntry:
        """Append one executed record to the Local Log."""
        if trace is not None:
            # Register before appending so the entry's own ``log.append``
            # journal event (and everything fired from it) already sees
            # the commit trace.
            self.obs.register_entry_trace(
                self.participant, self.local_log.next_position, trace
            )
        entry = self.local_log.append(record_type, value, meta, payload_bytes)
        if self.obs.enabled:
            self._record_apply_obs(entry, trace)
        return entry

    def _apply_truncate(self, committed: CommittedEntry) -> None:
        """Fold the Local Log prefix below the committed bound. The
        marker entry itself always survives: the bound never exceeds a
        certified snapshot base, which precedes the marker's position."""
        self._truncate_inflight = False
        before = self.local_log.retained_count
        self.local_log.truncate_before(committed.value)
        dropped = before - self.local_log.retained_count
        # A folded own-log position is never attestable, shipped or
        # looked up again: drop its settled signature collections and
        # the seq → position entry of a slot folded whole, and let the
        # daemons and the geo coordinator forget it.
        base = self.local_log.base_position
        for key in [
            key for key, collector in self._sign_collectors.items()
            if key[2] != "mirror-held" and key[0] < base
            and collector.future.resolved
        ]:
            del self._sign_collectors[key]
        self._seq_to_position = {
            seq: position
            for seq, position in self._seq_to_position.items()
            if position >= base
        }
        for daemon in self.comm_daemons:
            daemon.forget_folded(base)
        if self.geo is not None:
            self.geo.forget_folded(base)
        if self.obs.enabled:
            self.obs.counter(
                "bp_log_truncations_total", participant=self.participant
            ).inc()
            self.obs.counter(
                "bp_log_entries_folded_total", participant=self.participant
            ).inc(float(dropped))

    def _record_apply_obs(self, entry: LogEntry, trace) -> None:
        """Local-Log apply metrics and spans for a freshly appended
        entry (log_appends/log_length live in the LocalLog itself)."""
        if entry.record_type == RECORD_RECEIVED:
            sealed: SealedTransmission = entry.value
            source = sealed.record.source
            counter = self._reception_counters.get(source)
            if counter is None:
                counter = self.obs.counter(
                    "bp_receptions_total",
                    participant=self.participant,
                    source=source,
                )
                self._reception_counters[source] = counter
            counter.value += 1.0
        if not self.obs.tracing or trace is None:
            return
        self.obs.complete_span(
            "log.apply" if entry.record_type != RECORD_RECEIVED
            else "receive.apply",
            self.sim.now, self.sim.now, trace,
            participant=self.participant, node=self.node_id,
            position=entry.position, record_type=entry.record_type,
        )

    # ------------------------------------------------------------------
    # Signed checkpoints & snapshot state transfer (app hooks)
    # ------------------------------------------------------------------
    def checkpoint_payload(self, seq: int) -> LogSnapshot:
        """The middleware state a checkpoint at ``seq`` certifies: a
        snapshot folding the entire Local Log as of executing ``seq``
        (deterministic across honest replicas by Lemma 1), with each
        source's highest applied position as its reception floor."""
        return self.local_log.snapshot(tuple(sorted(
            (source, applied) for source in self.receptions
            if (applied := self.last_received_from(source))
        )))

    def sign_checkpoint(self, digest: str) -> Any:
        return sign(self.directory.registry, self.node_id, digest)

    def checkpoint_vote_valid(self, msg) -> bool:
        """Accept only votes whose signature verifies over the vote's
        own (seq, state, snapshot) digest — unsigned or spoofed votes
        never count toward a certificate."""
        signature = msg.signature
        if signature is None or signature.signer != msg.replica:
            return False
        return verify(
            self.directory.registry,
            signature,
            checkpoint_digest(msg.seq, msg.state_digest, msg.snapshot_digest),
        )

    def certificate_valid(self, certificate: Any) -> bool:
        """A transferred certificate convinces us with ``fi + 1`` valid
        member signatures (at least one honest voter stands behind it)."""
        if not isinstance(certificate, CheckpointCertificate):
            return False
        digest = checkpoint_digest(
            certificate.seq,
            certificate.state_digest,
            certificate.snapshot_digest,
        )
        proof = QuorumProof.build(
            digest,
            (
                signature
                for replica, signature in certificate.signatures
                if signature is not None and signature.signer == replica
            ),
        )
        valid = proof.valid_signers(self.directory.registry, self.peers)
        return len(valid) >= self.bp_config.proof_size

    def install_snapshot(self, payload: Any, seq: int) -> bool:
        """Adopt a certified Local Log snapshot (state transfer). The
        caller has already matched ``payload`` against the certificate's
        snapshot digest."""
        if not isinstance(payload, LogSnapshot):
            return False
        if payload.participant != self.participant:
            return False
        self.local_log.restore(payload)
        # Reception machinery resumes at the snapshot's floors (0 for a
        # source it does not name): chain delivery and vote heads both
        # continue from each source's highest applied position.
        floors = dict(payload.reception_floors)
        for source in floors:
            self._reception(source)
        for source, state in self.receptions.items():
            state.head = state.delivered = floor = floors.get(source, 0)
            state.pending.clear()
            state.voted = {p: d for p, d in state.voted.items() if p > floor}
        return True

    def on_stable_checkpoint(
        self, seq: int, certificate: Any, payload: Any
    ) -> None:
        """Gateway: propose folding the Local Log below the certified
        snapshot base (held back to the oldest still-unacknowledged
        shipped transmission, so retransmission never needs a folded
        entry). The bound is committed through PBFT and re-validated by
        every member against its own certificate before voting."""
        if not isinstance(payload, LogSnapshot):
            return
        if self.node_id != self.directory.gateway(self.participant):
            return
        if self._truncate_inflight or self.crashed:
            return
        bound = payload.base_position
        for daemon in self.comm_daemons:
            floor = daemon.delivery_floor()
            if floor is not None:
                bound = min(bound, floor)
        if bound <= self.local_log.base_position:
            return
        self._truncate_inflight = True
        future = self.local_commit(
            bound, RECORD_TRUNCATE, meta={"checkpoint_seq": seq}
        )

        def _done(completed: Future) -> None:
            if completed.exception is not None:
                self._truncate_inflight = False

        future.add_done_callback(_done)

    # ------------------------------------------------------------------
    # View-change hygiene
    # ------------------------------------------------------------------
    def on_view_installed(self, new_view: int) -> None:
        """Drop the advisory duplicate-suppression sets on a view change.

        The reception records' ``proposed`` sets and ``_proposed_mirrors``
        only exist so a leader does not burn sequence numbers on *racing*
        duplicate submissions. A proposal lost to a view change (its slot
        noop-ed by the new leader) would otherwise wedge its key forever:
        every future tenure of this replica as leader rejects the
        resubmission as "already proposed", even though it never
        committed. Clearing is safe — committed duplicates are accepted
        idempotently at vote time and deduplicated at apply time.
        """
        for state in self.receptions.values():
            state.proposed.clear()
        self._proposed_mirrors.clear()
        super().on_view_installed(new_view)

    def position_future(self, seq: int, offset: int = 0) -> Future:
        """Future resolving with the Local Log position of the entry
        committed at PBFT sequence ``seq`` with ``offset`` entries after
        it in that slot (resolves immediately if this node already
        applied it)."""
        future = Future(self.sim, label=f"position:{seq}")
        position = self._seq_to_position.get(seq)
        if position is not None:
            future.resolve(position - offset)
        else:
            self._position_waiters.setdefault(seq, []).append((offset, future))
        return future

    def _apply_reception(self, entry: LogEntry) -> None:
        record = entry.value.record
        state = self.receptions[record.source]
        # If we submitted this transmission ourselves and someone else's
        # submission won, cancel ours so its timer cannot fire forever.
        rid = state.submitted.pop(record.source_position, None)
        if rid is not None:
            self.engine.abandon(rid)
        state.head = max(state.head, record.source_position)
        # Commit (slot) order can differ from chain order when a later
        # message raced ahead; deliver to the application strictly along
        # the source's chain pointers. A delivered position needs no
        # vote digest: a re-vote for it passes as received.
        state.pending.setdefault(record.prev_position or 0, record)
        while (ready := state.pending.pop(state.delivered, None)) is not None:
            state.delivered = ready.source_position
            state.voted.pop(ready.source_position, None)
            if self.obs.forensics:
                self.obs.event(
                    "chain.advance", participant=self.participant,
                    node=self.node_id, source=record.source,
                    position=ready.source_position,
                    prev_position=ready.prev_position,
                )
            state.buffer.append(ready.message)
        self._wake_reception_waiters()

    def _apply_mirror(self, committed: CommittedEntry) -> None:
        entry, _proof = committed.value
        key = (entry.source, entry.position)
        self._proposed_mirrors.discard(key)
        if key in self._mirror_seen:
            return  # duplicate mirror commit; idempotent
        self._mirror_seen.add(key)
        self.mirror_logs.setdefault(entry.source, []).append(entry)
        self._mirror_by_digest[entry.digest()] = entry
        for waiter in self._mirror_applied_waiters.pop(key, []):
            if not waiter.resolved:
                waiter.resolve(entry)
        self._retry_deferred_sign_requests()

    def _mirror_applied_future(self, key: Tuple[str, int]) -> Future:
        """Future resolving when the mirror entry ``key`` is applied."""
        future = Future(self.sim, label=f"mirror-applied:{key}")
        if key in self._mirror_seen:
            future.resolve(None)
        else:
            self._mirror_applied_waiters.setdefault(key, []).append(future)
        return future

    # ------------------------------------------------------------------
    # Reception records (duplicate/gap answers, receive()'s node side)
    # ------------------------------------------------------------------
    def _reception(self, source: str) -> _Reception:
        """``source``'s record, created once a proof from it verifies."""
        state = self.receptions.get(source)
        if state is None:
            state = self.receptions[source] = _Reception()
        return state

    def has_received(self, source: str, source_position: int) -> bool:
        """Whether the transmission at ``source_position`` already
        applied here (duplicate detection): at or below the delivered
        chain head, or applied and waiting for its predecessor."""
        state = self.receptions.get(source)
        return state is not None and (
            source_position <= state.delivered
            or any(record.source_position == source_position
                   for record in state.pending.values())
        )

    def last_received_from(self, source: str) -> int:
        """Highest source position applied from ``source`` (0 if none):
        what this node reports to remote reserves."""
        state = self.receptions.get(source)
        if state is None:
            return 0
        return max(
            [state.delivered, *(r.source_position for r in state.pending.values())]
        )

    def poll_reception(self, source: Optional[str] = None) -> Future:
        """Return a future resolving with the next unread message
        (from ``source``, or from anyone when None)."""
        future = Future(self.sim, label=f"receive@{self.node_id}")
        self._reception_waiters.append((source, future))
        self._wake_reception_waiters()
        return future

    def _wake_reception_waiters(self) -> None:
        still_waiting: List[Tuple[Optional[str], Future]] = []
        for source, future in self._reception_waiters:
            if future.resolved:
                continue
            message = self._pop_buffered(source)
            if message is _EMPTY:
                still_waiting.append((source, future))
            else:
                future.resolve(message)
        self._reception_waiters = still_waiting

    def _pop_buffered(self, source: Optional[str]) -> Any:
        if source is not None:
            state = self.receptions.get(source)
            return state.buffer.popleft() if state and state.buffer else _EMPTY
        for state in self.receptions.values():
            if state.buffer:
                return state.buffer.popleft()
        return _EMPTY

    # ------------------------------------------------------------------
    # Incoming wide-area transmissions
    # ------------------------------------------------------------------
    def handle_transmission_message(self, msg: TransmissionMessage, src: str) -> None:
        """Funnel a received transmission into local commitment."""
        sealed = msg.sealed
        if sealed is None:
            return
        record = sealed.record
        position = record.source_position
        if record.destination != self.participant:
            return
        # Ingress validation: the same source-unit proof the voting path
        # checks (Check 1), applied before the record can reach
        # consensus or earn an ack. A byzantine link that tampers with a
        # transmission in flight produces a digest/proof mismatch here,
        # so corrupted records are dropped at the door instead of
        # churning PBFT with doomed proposals — and they are never
        # acked, so the shipping daemon retransmits the original.
        if not self.proof_valid(sealed.proof, record.digest(), record.source):
            if self.obs.enabled:
                self.obs.counter(
                    "bp_ingress_rejects_total",
                    participant=self.participant, source=record.source,
                ).inc()
                if self.obs.forensics:
                    self.obs.event(
                        "proof.rejected", participant=self.participant,
                        node=self.node_id, trace=msg.trace,
                        source=record.source,
                        position=record.source_position,
                        src=src, reason="ingress-proof",
                    )
            return
        if self.obs.forensics:
            self.obs.event(
                "proof.verified", participant=self.participant,
                node=self.node_id, trace=msg.trace,
                source=record.source, position=record.source_position,
                src=src,
            )
        # Transport-level ack (also for duplicates: a retransmitted
        # record must still stop the sender's retry timer).
        self.send(
            src,
            TransmissionAck(
                source_participant=record.source,
                receiver_participant=self.participant,
                source_position=record.source_position,
            ),
        )
        if self.obs.enabled:
            # First arrival at the destination closes the wide-area hop
            # span (duplicate deliveries are no-ops in the hub).
            self.obs.end_wan_span(record.source, record.destination,
                                  record.source_position)
        if self.has_received(record.source, position):
            return  # duplicate delivery (extra daemons are expected)
        state = self._reception(record.source)
        if position in state.submitted:
            return
        state.submitted[position], future = self.engine.submit(
            sealed,
            RECORD_RECEIVED,
            meta={"source": record.source},
            payload_bytes=record.payload_bytes,
            trace_ctx=msg.trace,
        )

        def _done(completed: Future) -> None:
            # A leader rejection ("already proposed/committed") is the
            # normal outcome when several receivers submit the same
            # transmission. Unblock re-submission for retransmissions.
            if completed.exception is not None:
                state.submitted.pop(position, None)

        future.add_done_callback(_done)

    def handle_transmission_ack(self, msg, src: str) -> None:
        """Route a destination node's transport ack to the daemons on
        this node (no-op on nodes without daemons)."""
        for daemon in self.comm_daemons:
            daemon.on_ack(msg, src)

    # ------------------------------------------------------------------
    # Signature service (Section IV-C: attesting transmission records)
    # ------------------------------------------------------------------
    def collect_local_signatures(
        self, position: int, digest: str, purpose: str = "transmission"
    ) -> Future:
        """Gather ``fi + 1`` unit signatures over ``digest``.

        Returns a future resolving with a
        :class:`~repro.crypto.signatures.QuorumProof`.
        """
        key = (position, digest, purpose)
        collector = self._sign_collectors.get(key)
        if collector is not None:
            return collector.future
        future = Future(self.sim, label=f"proof@{self.node_id}:{position}")
        collector = _SignatureCollector(
            future, self.bp_config.proof_size, digest
        )
        self._sign_collectors[key] = collector
        request = SignRequest(position=position, digest=digest, purpose=purpose)
        if self._attest(request):
            collector.add(
                self.node_id,
                sign(self.directory.registry, self.node_id, digest),
            )
        self.broadcast(self.peers, request)
        if not future.resolved:
            collector.timer = self.set_timer(
                SIGN_TIMEOUT_MS, self._retry_sign_collection, key
            )
        return future

    def _retry_sign_collection(self, key: Tuple[int, str, str]) -> None:
        collector = self._sign_collectors.get(key)
        if collector is None or collector.future.resolved:
            return
        position, digest, purpose = key
        self.broadcast(
            self.peers,
            SignRequest(position=position, digest=digest, purpose=purpose),
        )
        collector.timer = self.set_timer(
            SIGN_TIMEOUT_MS, self._retry_sign_collection, key
        )

    def handle_sign_request(self, msg: SignRequest, src: str) -> None:
        """Sign only what our own log copy substantiates."""
        if self._attest(msg):
            signature = sign(self.directory.registry, self.node_id, msg.digest)
            self.send(
                src,
                SignResponse(
                    position=msg.position,
                    digest=msg.digest,
                    signature=signature,
                    purpose=msg.purpose,
                ),
            )
        elif (
            msg.purpose == "mirror-held"
            or msg.position >= self.local_log.next_position
        ):
            # Our log may simply be behind; re-check as entries apply.
            # An applied or folded position never changes, so a request
            # for one that fails now can never pass.
            key = (src, msg.position, msg.digest, msg.purpose)
            self._deferred_sign_requests[key] = msg

    def _retry_deferred_sign_requests(self) -> None:
        if not self._deferred_sign_requests:
            return
        deferred, self._deferred_sign_requests = (
            self._deferred_sign_requests, {}
        )
        for (src, *_), msg in deferred.items():
            self.handle_sign_request(msg, src)

    def _attest(self, msg: SignRequest) -> bool:
        """Check the digest against our own Local Log copy."""
        if msg.purpose == "mirror-held":
            return self._attest_mirror_held(msg)
        if not self.local_log.covers(msg.position):
            return False
        entry = self.local_log.read(msg.position)
        if msg.purpose == "transmission":
            if entry.record_type != RECORD_COMMUNICATION:
                return False
            if entry.destination is None:
                return False
            record = self.local_log.transmission_record(entry)
            return record.digest() == msg.digest
        if msg.purpose == "mirror":
            mirror = MirrorEntry.of(self.participant, entry)
            return mirror.digest() == msg.digest
        if msg.purpose == "entry":
            # Attest a Local Log entry for proven reads (Section VI-A's
            # read-1 "proof of the entry's validity").
            return entry.digest() == msg.digest
        return False

    def _attest_mirror_held(self, msg: SignRequest) -> bool:
        """Attest that we durably hold a *mirrored* entry (used by the
        geo layer's acknowledgement proofs)."""
        mirror = self._mirror_by_digest.get(msg.digest)
        return mirror is not None and mirror.position == msg.position

    def handle_sign_response(self, msg: SignResponse, src: str) -> None:
        """Journal a unit member's signature, then hand it to the
        collection waiting for it (canary answers have none)."""
        if msg.signature is None or msg.signature.signer != src:
            if self.obs.forensics and msg.signature is not None:
                # A response carrying someone else's signer id is
                # impersonation evidence — journal it before dropping.
                self.obs.event(
                    "sign.spoofed", participant=self.participant,
                    node=self.node_id, signer=msg.signature.signer,
                    src=src, position=msg.position, digest=msg.digest,
                    purpose=msg.purpose,
                )
            return
        if not verify(self.directory.registry, msg.signature, msg.digest):
            if self.obs.forensics:
                # MAC failure over the claimed digest: cryptographic
                # evidence the signer forged the signature.
                self.obs.event(
                    "sign.invalid", participant=self.participant,
                    node=self.node_id, signer=src, position=msg.position,
                    digest=msg.digest, purpose=msg.purpose,
                )
            return
        if self.obs.forensics:
            self.obs.event(
                "sign.response", participant=self.participant,
                node=self.node_id, signer=src, position=msg.position,
                digest=msg.digest, purpose=msg.purpose,
            )
        collector = self._sign_collectors.get(
            (msg.position, msg.digest, msg.purpose)
        )
        if collector is not None:
            collector.add(src, msg.signature)

    # ------------------------------------------------------------------
    # Reserve probes (Section IV-C)
    # ------------------------------------------------------------------
    def handle_gap_query(self, msg: GapQuery, src: str) -> None:
        """Report the last *source* log position received from the
        asking participant."""
        self.send(
            src,
            GapResponse(
                source_participant=msg.source_participant,
                last_source_position=self.last_received_from(
                    msg.source_participant
                ),
            ),
        )

    def handle_gap_response(self, msg: GapResponse, src: str) -> None:
        """Route a reserve probe answer to this node's reserves."""
        for reserve in self.reserves:
            reserve.handle_gap_response(msg, src)

    # ------------------------------------------------------------------
    # Geo mirroring — the passive (secondary) side of Section V
    # ------------------------------------------------------------------
    def handle_mirror_request(self, msg, src: str) -> None:
        """Mirror another participant's entry and acknowledge with an
        ``fi + 1`` proof from our unit."""
        entry = msg.entry
        proof = msg.proof
        if entry is None or proof is None or not msg.reply_to:
            return
        if not self._verify_mirror((entry, proof)):
            return
        self.sim.spawn(self._mirror_and_respond(entry, proof, msg.reply_to))

    def _mirror_and_respond(self, entry: MirrorEntry, proof, reply_to: str):
        key = (entry.source, entry.position)
        if key not in self._mirror_seen:
            waiter = self._mirror_applied_future(key)
            future = self.submit(
                (entry, proof),
                RECORD_MIRROR,
                meta={"source": entry.source},
                payload_bytes=msg_payload_estimate(entry),
            )
            # Rejection = another unit member already proposed it; the
            # waiter below still fires when the entry applies.
            future.add_done_callback(lambda _f: None)
            yield waiter
        held_proof = yield self.collect_local_signatures(
            entry.position, entry.digest(), purpose="mirror-held"
        )
        self.send(
            reply_to,
            MirrorResponse(
                source=entry.source,
                position=entry.position,
                participant=self.participant,
                proof=held_proof,
            ),
        )

    def register_mirror_waiter(self, participant: str, position: int) -> Future:
        """Future resolving with the first :class:`MirrorResponse` from
        ``participant`` for ``position`` (used by the geo coordinator)."""
        key = (participant, position)
        future = self._mirror_response_waiters.get(key)
        if future is None or future.resolved:
            future = Future(self.sim, label=f"mirror-ack:{key}")
            self._mirror_response_waiters[key] = future
        return future

    def handle_mirror_response(self, msg, src: str) -> None:
        """Deliver a mirror acknowledgement to its waiter."""
        if self.obs.forensics:
            self.obs.event(
                "mirror.ack", participant=self.participant,
                node=self.node_id,
                trace=self.obs.entry_trace(self.participant, msg.position),
                mirror=msg.participant, position=msg.position, src=src,
            )
        key = (msg.participant, msg.position)
        future = self._mirror_response_waiters.pop(key, None)
        if future is not None and not future.resolved:
            future.resolve(msg)

    # ------------------------------------------------------------------
    # Geo failover plumbing (delegates to the coordinator when present)
    # ------------------------------------------------------------------
    def handle_heartbeat(self, msg, src: str) -> None:
        if self.geo is not None:
            self.geo.on_heartbeat(msg, src)

    def handle_take_over(self, msg, src: str) -> None:
        if self.geo is not None:
            self.geo.on_take_over(msg, src)

    # ------------------------------------------------------------------
    # Read protocol (Section VI-A)
    # ------------------------------------------------------------------
    def read_quorum(
        self,
        position: int,
        required: int,
        targets: Optional[List[str]] = None,
    ) -> Future:
        """Read a Local Log position from unit nodes.

        Args:
            position: 1-based log position.
            required: How many *identical* responses to wait for
                (1 = the paper's read-1 strategy, ``2f + 1`` = the
                byzantine-safe quorum strategy).
            targets: Node ids to ask; defaults to the whole unit for
                quorum reads, just this node for ``required == 1``.

        Returns:
            Future resolving with the agreed :class:`LogEntry` (or None
            if the quorum agrees the position is unwritten).
        """
        if targets is None:
            targets = [self.node_id] if required == 1 else list(self.peers)
        self._read_counter += 1
        request_id = (self.node_id, self._read_counter)
        future = Future(self.sim, label=f"read:{position}")
        self._read_collectors[request_id] = {
            "required": required,
            "future": future,
            "responses": {},
        }
        request = ReadRequest(position=position, request_id=request_id)
        for target in targets:
            if target == self.node_id:
                self.handle_read_request(request, self.node_id)
            else:
                self.send(target, request)
        return future

    def handle_read_request(self, msg: ReadRequest, src: str) -> None:
        """Serve a Local Log read from this node's copy."""
        entry = None
        if self.local_log.covers(msg.position):
            entry = self.local_log.read(msg.position)
        response = ReadResponse(
            position=msg.position,
            request_id=msg.request_id,
            entry=entry,
            replica=self.node_id,
        )
        if src == self.node_id:
            self.handle_read_response(response, self.node_id)
        else:
            self.send(src, response)

    def handle_read_response(self, msg: ReadResponse, src: str) -> None:
        """Tally read responses until enough identical ones arrive."""
        collector = self._read_collectors.get(msg.request_id)
        if collector is None or msg.replica != src:
            return
        digest = msg.entry.digest() if msg.entry is not None else "<absent>"
        collector["responses"][src] = (digest, msg.entry)
        matching = [
            entry
            for _replica, (d, entry) in collector["responses"].items()
            if d == digest
        ]
        if len(matching) >= collector["required"]:
            del self._read_collectors[msg.request_id]
            future = collector["future"]
            if not future.resolved:
                future.resolve(msg.entry)


def _unbatch(value: Any) -> Optional[List[tuple]]:
    """The ``(record_type, value, meta, payload_bytes)`` records a batch
    carries, in submission order, or None when it is malformed or holds
    a record type that may not ride in one."""
    try:
        records = [
            (record_type, item, dict(meta) or None, payload_bytes)
            for record_type, item, meta, payload_bytes in value
        ]
        if records and all(
            record_type in BATCHABLE and isinstance(payload_bytes, int)
            for record_type, _item, _meta, payload_bytes in records
        ):
            return records
    except (TypeError, ValueError):
        pass
    return None


def msg_payload_estimate(entry: MirrorEntry) -> int:
    """Wire-size estimate of a mirrored entry's value."""
    value = entry.value
    if isinstance(value, (bytes, str)):
        return len(value)
    return 256


#: Sentinel distinguishing 'no message' from a None message.
_EMPTY = object()
