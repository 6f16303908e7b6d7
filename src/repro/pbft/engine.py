"""The PBFT state machine, sans IO.

A :class:`PBFTEngine` is one member of a PBFT group of ``n = 3f + 1``
as a plain object. The normal case follows Castro & Liskov exactly: the
leader orders a client request with a pre-prepare, replicas echo
prepares, and — once *prepared* — broadcast commit votes. An entry
executes when it has ``2f + 1`` commit votes and every lower sequence
number has executed. The submitter learns the outcome from ``f + 1``
matching replies.

Blockplane's modifications (Section IV-B of the paper):

* every proposal carries a ``record_type`` annotation, and
* between the prepared state and the commit broadcast the replica runs
  the user-supplied **verification routine**; a replica never votes to
  commit a value that is not a valid state transition of the wrapped
  protocol.

The engine owns no socket, scheduler or telemetry hub. It reaches the
world only through what its constructor is handed — ``send``,
``broadcast``, ``set_timer``, a clock, a future factory, the flight
recorder's journal — and asks everything group-specific of one *app*
object (:class:`PBFTApp`). Whoever delivers a message calls the bound
``handle_<kind>`` method — never the engine itself: what it sends itself
waits in an outbox until its step ends (:meth:`PBFTEngine._step`).
:class:`repro.pbft.replica.PBFTReplica` is the host that wires an engine
to a simulated machine; a test can wire one to five lists instead. The
engine is honest; byzantine variants used by the test suite live in
:mod:`repro.pbft.byzantine`.
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.crypto.digest import cached_digest, formula_digest
from repro.errors import ProtocolError, VerificationFailed
from repro.pbft.config import PBFTConfig
from repro.pbft.messages import (
    CatchUpRequest,
    CatchUpResponse,
    Checkpoint,
    CheckpointCertificate,
    ClientRequest,
    Commit,
    CommittedEntry,
    NewView,
    PrePrepare,
    Prepare,
    PreparedCertificate,
    RejectRequest,
    Reply,
    ViewChange,
)
from repro.pbft.quorums import (
    commit_quorum,
    max_faulty,
    reply_quorum,
    unit_size,
)

#: Filler proposal used to plug sequence holes after a view change.
#: Verification routines must accept it; executors must ignore it.
NOOP_VALUE = "__pbft_noop__"
NOOP_RECORD_TYPE = "noop"


def request_digest(
    value: Any, record_type: str, request_id: Tuple[str, int]
) -> str:
    """The digest a proposal binds its request to.

    The (possibly large) application value is folded in as
    ``cached_digest(value)`` — the same string whether or not the memo
    is enabled — so a value object that already passed through the
    digest memo (record digests, earlier proposals) costs nothing to
    bind again; the outer tuple, which every replica rebuilds, goes
    through the content-keyed ``formula_digest``. Every entry digest in
    the protocol — proposals, the backups' check that a pre-prepare's
    digest binds its value, catch-up vouching, the execution chain —
    and in the byzantine forgers goes through this one helper; the two
    sides of a digest comparison always agree on the formula.
    """
    return formula_digest((cached_digest(value), record_type, request_id))


def checkpoint_digest(seq: int, state_digest: str, snapshot_digest: str) -> str:
    """The digest a signed checkpoint vote covers: the watermark, the
    execution chain head, and the middleware snapshot digest together.
    Both sides of a vote/certificate check use this one formula."""
    return formula_digest((seq, state_digest, snapshot_digest))


#: The request id of a proposal no client submitted (hole fillers).
NO_REQUEST: Tuple[str, int] = ("", 0)

#: The hole-filler proposal's request fields and digest. They are
#: constants of the protocol (value, type, and the null request id never
#: vary), yet a new leader plugging a deposed leader's holes used to
#: recompute the digest per slot.
_NOOP_FILL = ClientRequest(
    request_id=NO_REQUEST, value=NOOP_VALUE, record_type=NOOP_RECORD_TYPE
)
_NOOP_FILL_DIGEST = request_digest(NOOP_VALUE, NOOP_RECORD_TYPE, NO_REQUEST)


class PBFTApp:
    """What an engine asks of the group it orders entries for — the one
    seam a middleware customises. The defaults are a plain PBFT group:
    every value is legal, checkpoints are unsigned execution digests
    with no snapshot. Blockplane nodes attach a Local Log snapshot, HMAC
    signatures and the paper's verification routines here.
    """

    def pre_validate(self, msg: ClientRequest) -> Optional[str]:
        """Leader-side gate before a sequence number is assigned: None
        to accept, or a human-readable reason to refuse."""
        return None

    def verify(
        self, value: Any, record_type: str, meta: Optional[Dict[str, Any]]
    ) -> Optional[bool]:
        """The verification routine run between *prepared* and the
        commit vote (never for hole fillers). None defers the decision
        until earlier slots progress; raising reads as a rejection."""
        return True

    def checkpoint_payload(self, seq: int) -> Any:
        """Middleware snapshot taken at a checkpoint broadcast; answers
        ``.digest()``. None for none."""
        return None

    def sign_checkpoint(self, digest: str) -> Any:
        """Sign our checkpoint vote (None = unsigned)."""
        return None

    def checkpoint_vote_valid(self, msg: Checkpoint) -> bool:
        """Whether a peer's checkpoint vote is admissible (verify its
        signature before the vote can count)."""
        return True

    def certificate_valid(self, certificate: CheckpointCertificate) -> bool:
        """Whether a *fetched* certificate proves its watermark. Plain
        PBFT votes are unsigned, so nothing transferable can be proved."""
        return False

    def install_snapshot(self, payload: Any, seq: int) -> bool:
        """Install a certified snapshot's middleware state (Blockplane
        restores its Local Log here). Returns False to refuse."""
        return payload is None

    def on_stable_checkpoint(
        self, seq: int, certificate: CheckpointCertificate, payload: Any
    ) -> None:
        """A checkpoint at or below our execution point stabilized
        (Blockplane's gateway proposes Local Log truncation here)."""

    def on_view_installed(self, new_view: int) -> None:
        """This replica entered ``new_view``, as leader or backup."""


@dataclasses.dataclass
class _Slot:
    """Book-keeping for one sequence number."""

    view: int = 0
    digest: str = ""
    value: Any = None
    record_type: str = ""
    meta: Optional[Dict[str, Any]] = None
    request_id: Tuple[str, int] = NO_REQUEST
    payload_bytes: int = 0
    has_pre_prepare: bool = False
    # Vote tallies map replica → the digest it voted for. Votes can
    # arrive before the pre-prepare fixes this slot's digest, so the
    # digest must travel with the vote — counting bare replica ids
    # would let votes for a *different* proposal at this sequence
    # number (crossed over from a concurrent view) fill the quorum.
    prepares: Dict[str, str] = dataclasses.field(default_factory=dict)
    commits: Dict[str, str] = dataclasses.field(default_factory=dict)
    commit_sent: bool = False
    committed: bool = False
    executed: bool = False
    # For the host's probe: virtual-time phase stamps (-1 = not reached)
    # and the originating commit's trace context, if any. Stamped only
    # when a probe is attached.
    t_pre_prepare: float = -1.0
    t_prepared: float = -1.0
    trace: Optional[Tuple[int, int]] = None
    #: The armed execution-watchdog timer (cancelled on execution — in
    #: the healthy path every slot executes long before its watchdog
    #: fires, and a cancelled timer is a heap tombstone the simulator
    #: sweeps instead of a live event it must fire).
    timer: Any = None

    def accept(self, view: int, digest: str, proposal: Any) -> None:
        """Fix this slot to ``proposal`` — a pre-prepare, or an entry
        adopted through catch-up — under ``digest`` in ``view``."""
        self.view = view
        self.digest = digest
        self.value = proposal.value
        self.record_type = proposal.record_type
        self.meta = proposal.meta
        self.request_id = proposal.request_id
        self.payload_bytes = proposal.payload_bytes
        self.has_pre_prepare = True


@dataclasses.dataclass
class _PendingRequest:
    """Origin-side state for a submitted request."""

    future: Any
    #: The request as (re)sent to each view's leader until it commits.
    request: ClientRequest
    replies: Dict[str, Tuple[int, int, str]] = dataclasses.field(
        default_factory=dict
    )
    retries: int = 0
    timer: Any = None  # the armed retry timer; cancelled at completion


class PBFTEngine:
    """One member of a PBFT group, as a state machine with injected IO.

    Args:
        node_id: This replica's id; must appear in ``peers``.
        site: Datacenter name (labels journal facts).
        peers: Ordered ids of *all* group members (including this one).
            The leader of view ``v`` is ``peers[v % len(peers)]``.
        config: Timing/log parameters.
        app: The :class:`PBFTApp` this group replicates.
        send: ``send(dst_id, message)``.
        broadcast: ``broadcast(dst_ids, message)``; skips ``node_id``.
        set_timer: ``set_timer(delay_ms, fn, *args)`` returning a handle
            with ``.cancel()``.
        clock: Anything with a ``.now`` in virtual milliseconds.
        make_future: ``make_future(label)`` returning an object with
            ``resolved`` / ``resolve(value)`` / ``reject(exception)``.
        journal: The flight recorder — anything with ``header``,
            ``record`` and ``emit`` like :class:`repro.obs.EventJournal`
            — or None when nothing journals. Votes and pre-prepares go
            through headers interned here; rarer facts through ``emit``.
        probe: Optional telemetry listener — ``slot_executed(entry,
            slot)`` before the ``on_executed`` callbacks of a normally
            executed non-noop slot, ``verify_rejected()``,
            ``view_change_started()`` and ``request_closed(request_id,
            **outcome)``. Slots are time-stamped only when one is given.

    Attributes:
        on_executed: Callbacks invoked with each :class:`CommittedEntry`
            as it executes, in sequence order. Blockplane attaches its
            Local-Log append here.
    """

    def __init__(
        self,
        node_id: str,
        site: str,
        peers: List[str],
        config: PBFTConfig,
        app: PBFTApp,
        *,
        send: Callable[[str, Any], None],
        broadcast: Callable[[Any, Any], None],
        set_timer: Callable[..., Any],
        clock: Any,
        make_future: Callable[[str], Any],
        journal: Any = None,
        probe: Any = None,
    ) -> None:
        if node_id not in peers:
            raise ProtocolError(f"{node_id} missing from its own peer list")
        if len(peers) < unit_size(1):
            raise ProtocolError(
                f"PBFT needs at least {unit_size(1)} replicas (3f+1), "
                f"got {len(peers)}"
            )
        self.node_id = node_id
        self.site = site
        self.peers = list(peers)
        self.config = config
        self.app = app
        self.send = send
        self.broadcast = broadcast
        self.set_timer = set_timer
        self.clock = clock
        self._make_future = make_future
        self._journal = journal
        if journal is not None:
            names = ("phase", "view", "seq", "digest", "voter", "src")
            self._vote_header = journal.header("pbft.vote", site, node_id, names)
            names = ("view", "seq", "digest", "leader", "request_id")
            self._pre_prepare_header = journal.header(
                "pbft.pre_prepare", site, node_id, names
            )
        self._probe = probe
        # The group never reconfigures, so its size, the byzantine
        # failures it tolerates and the quorum thresholds are constants
        # of the replica; the quorum checks run on every vote and must
        # not recompute ``(n - 1) // 3`` arithmetic each time.
        self.n = len(self.peers)
        self.f = max_faulty(self.n)
        self._commit_quorum = commit_quorum(self.f)
        self.view = 0
        self.in_view_change = False
        self.next_seq = 1  # used only while leader
        self.last_executed = 0
        self.stable_checkpoint = 0
        self.slots: Dict[int, _Slot] = {}
        self.executed_entries: List[CommittedEntry] = []
        self.on_executed: List[Callable[[CommittedEntry], None]] = []
        self._exec_chain = hashlib.sha256(b"genesis").hexdigest()
        self._request_counter = 0
        self._pending: Dict[Tuple[str, int], _PendingRequest] = {}
        self._assigned_requests: Dict[Tuple[str, int], int] = {}
        self._executed_requests: set = set()
        # request_id → (suspicions fired, armed watchdog timer). The
        # timer is cancelled on execution (watchdog delays double per
        # firing, so a stale one can sit in the heap for many seconds of
        # virtual time otherwise) and is None once the budget is spent.
        self._request_watchdogs: Dict[Tuple[str, int], Tuple[int, Any]] = {}
        self._view_change_votes: Dict[int, Dict[str, ViewChange]] = {}
        self._voted_view = 0
        self._highest_vote: Dict[str, int] = {}
        self._last_view_change_vote: Optional[ViewChange] = None
        self._escalations = 0
        # seq → replica → its Checkpoint vote (digests + signature).
        self._checkpoints: Dict[int, Dict[str, Checkpoint]] = {}
        #: Certificate of the latest stable checkpoint (None until the
        #: first one stabilizes).
        self.stable_certificate: Optional[CheckpointCertificate] = None
        # Snapshot payloads taken at our own checkpoint broadcasts,
        # kept until their watermark stabilizes (then only the stable
        # one survives).
        self._checkpoint_payloads: Dict[int, Any] = {}
        self._stable_snapshot_payload: Any = None
        # Highest seq garbage-collected out of ``executed_entries``
        # (0 = full log retained). Catch-up requests at or below it are
        # served by snapshot state transfer instead of entry replay.
        self._executed_gc_seq = 0
        #: Diagnostics for the state-transfer path.
        self.snapshot_installs = 0
        self.snapshot_offers_rejected = 0
        self._deferred_verification: set = set()
        # Catch-up staging: seq → digest → (vouching peers, latest entry).
        self._catch_up: Dict[int, Dict[str, Tuple[set, CommittedEntry]]] = {}
        self._reported_views: Dict[str, int] = {}  # peer → its latest view
        self._outbox: collections.deque = collections.deque()
        self._stepping = False  # a step is open: self-sends only queue

    # ------------------------------------------------------------------
    # Group arithmetic
    # ------------------------------------------------------------------
    def leader_of(self, view: int) -> str:
        """Deterministic leader rotation: the view number modulo n."""
        return self.peers[view % self.n]

    @property
    def is_leader(self) -> bool:
        """Whether this replica leads the current view."""
        return self.leader_of(self.view) == self.node_id

    # ------------------------------------------------------------------
    # Submission (the "client" side lives on the replicas themselves:
    # in Blockplane, the submitter is the middleware node co-located
    # with the application)
    # ------------------------------------------------------------------
    def submit(
        self,
        value: Any,
        record_type: str = "log-commit",
        meta: Optional[Dict[str, Any]] = None,
        payload_bytes: int = 0,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> Tuple[Tuple[str, int], Any]:
        """Submit a value for total-order commitment.

        Args:
            trace_ctx: Optional observability trace context
                ``(trace_id, parent_span_id)``, carried on the request
                and its proposal so a host can attribute the consensus
                round and its phases to the originating trace.

        Returns:
            ``(request_id, future)``. The future resolves with the
            :class:`CommittedEntry` once ``f + 1`` replicas have replied
            with matching execution results. It outlives leader
            failures: the request is retried into new views until it
            commits, is rejected by a leader, or is given up with
            :meth:`abandon` (which needs the id).
        """
        self._request_counter += 1
        request_id = (self.node_id, self._request_counter)
        pending = _PendingRequest(
            future=self._make_future(f"pbft:{request_id}"),
            request=ClientRequest(
                payload_bytes=payload_bytes,
                request_id=request_id,
                value=value,
                record_type=record_type,
                meta=meta,
                trace=trace_ctx,
            ),
        )
        if self._probe is not None:
            self._probe.request_opened(request_id, record_type, trace_ctx)
        self._pending[request_id] = pending
        self._dispatch_request(request_id)
        pending.timer = self.set_timer(
            self.config.request_timeout_ms, self._request_timeout, request_id
        )
        return request_id, pending.future

    def abandon(self, request_id: Tuple[str, int]) -> None:
        """Give up on a submitted request whose outcome no longer
        matters (the value committed through another submission): its
        retry timer is cancelled and its future is never settled."""
        pending = self._close_request(request_id, superseded=True)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    def _close_request(
        self, request_id: Tuple[str, int], **outcome: Any
    ) -> Optional[_PendingRequest]:
        pending = self._pending.pop(request_id, None)
        if pending is not None and self._probe is not None:
            self._probe.request_closed(request_id, **outcome)
        return pending

    @staticmethod
    def _pre_prepare(
        view: int, seq: int, digest: str, request: Any, payload_bytes: int = 0
    ) -> PrePrepare:
        """The proposal ordering ``request`` — anything carrying the
        request fields: a client request, an accepted slot, a prepared
        certificate — at ``seq`` in ``view``."""
        return PrePrepare(
            payload_bytes=payload_bytes,
            view=view,
            seq=seq,
            digest=digest,
            request_id=request.request_id,
            value=request.value,
            record_type=request.record_type,
            meta=request.meta,
            trace=request.trace,
        )

    def _dispatch_request(self, request_id: Tuple[str, int]) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        self._send(self.leader_of(self.view), pending.request)

    def _send(self, dst: str, message: Any) -> None:
        """Send ``message`` to ``dst``; to ourselves through the outbox."""
        if dst == self.node_id:
            self._step(self._outbox.append, message)
        else:
            self.send(dst, message)

    def _step(self, step: Callable[..., None], *args: Any) -> None:
        """The atomic boundary. Outermost, run ``step(*args)`` and then
        deliver the outbox, one ``handle_<kind>`` step per message in
        FIFO order; nested in an open step, only run it."""
        if self._stepping:
            step(*args)
            return
        self._stepping = True
        try:
            step(*args)
            while self._outbox:
                message = self._outbox.popleft()
                getattr(self, "handle_" + message.kind)(message, self.node_id)
        finally:
            self._stepping = False

    def _request_timeout(self, request_id: Tuple[str, int]) -> None:
        pending = self._pending.get(request_id)
        if pending is None:
            return
        pending.retries += 1
        # If we lead and already proposed this request, retransmit the
        # pre-prepare (a quorum member may have been down and missed the
        # original round). Otherwise suspect the leader.
        seq = self._assigned_requests.get(request_id)
        if self.is_leader and seq is not None:
            slot = self.slots.get(seq)
            if slot is not None and slot.has_pre_prepare and not slot.executed:
                self.broadcast(
                    self.peers,
                    self._pre_prepare(
                        slot.view, seq, slot.digest, slot, slot.payload_bytes
                    ),
                )
        else:
            self.start_view_change(self.view + 1)
            # Broadcast the request to the whole group (standard PBFT):
            # every replica forwards it to the leader and arms its own
            # watchdog, so the group — not just this origin — suspects
            # a leader that fails to order it.
            self.broadcast(self.peers, pending.request)
            self._dispatch_request(request_id)
        pending.timer = self.set_timer(
            self.config.request_timeout_ms * (pending.retries + 1),
            self._request_timeout,
            request_id,
        )

    #: How many leader suspicions one stuck request may trigger at a
    #: non-origin replica. Bounded so a request the leader legitimately
    #: *rejected* (which never executes) cannot drive view changes
    #: forever — the origin's own retry timer carries liveness beyond
    #: this budget.
    WATCHDOG_BUDGET = 8

    def _client_request_watchdog(self, request_id: Tuple[str, int]) -> None:
        """A forwarded client request never executed: suspect the
        leader, and keep watching until it executes or the budget ends."""
        if request_id in self._executed_requests:
            self._request_watchdogs.pop(request_id, None)
            return
        fired = self._request_watchdogs.get(request_id, (0, None))[0]
        if fired >= self.WATCHDOG_BUDGET:
            # Keep the spent entry: a late duplicate of the request must
            # not arm a fresh budget.
            self._request_watchdogs[request_id] = (fired, None)
            return
        self.start_view_change(self.view + 1)
        self._request_watchdogs[request_id] = (
            fired + 1,
            self.set_timer(
                2 * self.config.request_timeout_ms * (fired + 1),
                self._client_request_watchdog,
                request_id,
            ),
        )

    def _slot_timeout(self, seq: int, view: int) -> None:
        """An accepted proposal did not execute in time: suspect the
        leader of that view (unless we have moved past it already)."""
        slot = self.slots.get(seq)
        if slot is None or slot.executed or seq <= self.last_executed:
            return
        if self.view != view:
            return
        self.start_view_change(self.view + 1)

    def _has_progress_pressure(self) -> bool:
        """Is there work stuck behind the current (suspect) leader?"""
        if self._pending:
            return True
        return any(
            slot.has_pre_prepare and not slot.executed
            for slot in self.slots.values()
        )

    # ------------------------------------------------------------------
    # Normal case
    # ------------------------------------------------------------------
    def handle_client_request(self, msg: ClientRequest, src: str) -> None:
        """Leader: assign a sequence number and broadcast pre-prepare."""
        if not self.is_leader or self.in_view_change:
            # Forward to whoever we believe leads, and arm a watchdog:
            # if the request never executes, this replica joins the
            # suspicion against the leader (PBFT's liveness rule).
            leader = self.leader_of(self.view)
            if leader != self.node_id and src == msg.request_id[0]:
                self.send(leader, msg)
            if msg.request_id not in self._request_watchdogs:
                self._request_watchdogs[msg.request_id] = (
                    0,
                    self.set_timer(
                        2 * self.config.request_timeout_ms,
                        self._client_request_watchdog,
                        msg.request_id,
                    ),
                )
            return
        if (
            msg.request_id in self._assigned_requests
            or msg.request_id in self._executed_requests
        ):
            return  # duplicate (client retry); in flight or executed
        reject_reason = self.app.pre_validate(msg)
        if reject_reason is not None:
            rejection = RejectRequest(
                request_id=msg.request_id,
                reason=reject_reason,
                replica=self.node_id,
            )
            self._send(msg.request_id[0], rejection)
            return
        seq = self.next_seq
        self.next_seq += 1
        self._assigned_requests[msg.request_id] = seq
        pre_prepare = self._pre_prepare(
            self.view,
            seq,
            request_digest(msg.value, msg.record_type, msg.request_id),
            msg,
            msg.payload_bytes,
        )
        self.broadcast(self.peers, pre_prepare)
        self._accept_pre_prepare(pre_prepare, self.node_id)

    def handle_reject_request(self, msg: RejectRequest, src: str) -> None:
        """Origin side: fail the submit future with the leader's reason.

        Only the current leader's word is taken; a byzantine non-leader
        cannot kill someone else's request this way.
        """
        if src != self.leader_of(self.view) and src != msg.replica:
            return
        if msg.replica != self.leader_of(self.view):
            return
        pending = self._close_request(msg.request_id, rejected=msg.reason)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        if not pending.future.resolved:
            pending.future.reject(
                VerificationFailed(
                    f"request {msg.request_id} rejected by leader: {msg.reason}"
                )
            )

    def handle_pre_prepare(self, msg: PrePrepare, src: str) -> None:
        """Accept the leader's ordering proposal and echo a prepare."""
        self._accept_pre_prepare(msg, src)

    def _accept_pre_prepare(self, msg: PrePrepare, src: str) -> None:
        """Accept a proposal: a peer's, a NewView's or our own as leader."""
        if msg.view != self.view or self.in_view_change:
            return
        if src != self.leader_of(msg.view):
            return  # only the view's leader may pre-prepare
        if src != self.node_id and msg.digest != request_digest(
            msg.value, msg.record_type, msg.request_id
        ):
            # Votes and the execution chain carry only the digest: a
            # leader sending one digest with different values would
            # otherwise fork the backups that accept them.
            return
        journal = self._journal
        if journal is not None:
            journal.record(
                self._pre_prepare_header, msg.trace,
                (msg.view, msg.seq, msg.digest, src, msg.request_id),
            )
        slot = self.slots.get(msg.seq)
        if slot is not None and slot.has_pre_prepare:
            if slot.digest == msg.digest and (
                slot.view == msg.view or slot.executed
            ):
                # Retransmitted pre-prepare (the leader healing a lost
                # round, a recovered replica's gap, or a new view
                # re-proposing a slot we already executed): re-send our
                # own votes so the quorum can re-form for laggards — only
                # those cast for this digest (a slot adopted by catch-up
                # keeps the votes we cast for what it held before).
                if slot.prepares.get(self.node_id) == slot.digest:
                    self.broadcast(
                        self.peers,
                        Prepare(
                            view=slot.view, seq=msg.seq, digest=slot.digest,
                            replica=self.node_id,
                        ),
                    )
                if slot.commits.get(self.node_id) == slot.digest:
                    self.broadcast(
                        self.peers,
                        Commit(
                            view=slot.view, seq=msg.seq, digest=slot.digest,
                            replica=self.node_id,
                        ),
                    )
                return
            if slot.executed:
                # The executed value is final; a conflicting re-proposal
                # (even from a higher view) must never replace it or
                # attract our votes.
                return
            if slot.view >= msg.view:
                return  # already accepted a proposal for this slot
        if slot is None and msg.seq <= self.last_executed:
            # Checkpoint-truncated sequence number: it is stably
            # committed by 2f+1 replicas — laggards recover it through
            # catch-up, not through fresh votes.
            return
        if slot is None or msg.view > slot.view:
            slot = _Slot()
            self.slots[msg.seq] = slot
        slot.accept(msg.view, msg.digest, msg)
        if self._probe is not None and slot.t_pre_prepare < 0:
            slot.t_pre_prepare = self.clock.now
            slot.trace = msg.trace
        slot.prepares[self.node_id] = msg.digest
        prepare = Prepare(
            view=msg.view, seq=msg.seq, digest=msg.digest, replica=self.node_id
        )
        self.broadcast(self.peers, prepare)
        # Execution watchdog: an accepted proposal that never executes
        # makes this replica suspect the leader (standard PBFT timer —
        # this is what lets non-submitting replicas join view changes).
        if slot.timer is not None:
            slot.timer.cancel()  # re-proposal: the old view's watchdog is dead
        slot.timer = self.set_timer(
            self.config.request_timeout_ms * 2,
            self._slot_timeout,
            msg.seq,
            msg.view,
        )
        self._check_prepared(msg.seq)

    @staticmethod
    def _matching_votes(votes: Dict[str, str], digest: str) -> int:
        """Count votes cast for exactly this digest."""
        return sum(1 for voted in votes.values() if voted == digest)

    def handle_prepare(self, msg: Prepare, src: str) -> None:
        """Tally a prepare vote.

        The digest travels with the vote: votes may arrive before the
        pre-prepare, and only votes matching the eventually-fixed
        digest count toward the quorum.
        """
        journal = self._journal
        if journal is not None:
            journal.record(
                self._vote_header, None,
                ("prepare", msg.view, msg.seq, msg.digest, msg.replica, src),
            )
        if msg.replica != src:
            return  # a replica may only vote as itself
        slot = self.slots.get(msg.seq)
        if slot is None:
            slot = self.slots[msg.seq] = _Slot(view=msg.view)
        slot.prepares[src] = msg.digest
        self._check_prepared(msg.seq)

    def _check_prepared(self, seq: int) -> None:
        """Count matching prepares; a quorum opens the prepared step."""
        slot = self.slots.get(seq)
        if slot is None or not slot.has_pre_prepare or slot.commit_sent:
            return
        # Count matching prepares inline: this runs per vote received,
        # and a generator-expression ``sum`` costs a frame per call.
        digest = slot.digest
        votes = 0
        for voted in slot.prepares.values():
            if voted == digest:
                votes += 1
        if votes < self._commit_quorum:
            return
        self._step(self._prepared, seq, slot)

    def _prepared(self, seq: int, slot: _Slot) -> None:
        """Prepared ⇒ run the verification routine, then vote commit."""
        if self._probe is not None and slot.t_prepared < 0:
            slot.t_prepared = self.clock.now
        # --- Blockplane modification #2: the verification routine runs
        # between the prepared state and the commit broadcast. A routine
        # may return None to *defer* (e.g. a received record whose chain
        # predecessor has not been voted yet); the check is retried when
        # earlier slots make progress.
        verdict = self.verdict(slot.value, slot.record_type, slot.meta)
        if verdict is None:
            self._deferred_verification.add(seq)
            return
        if not verdict:
            if self._probe is not None:
                self._probe.verify_rejected()
            if self._journal is not None:
                self._journal.emit(
                    "pbft.verify_reject", self.site, self.node_id, slot.trace,
                    view=slot.view, seq=seq,
                    record_type=slot.record_type, digest=slot.digest,
                    leader=self.leader_of(slot.view),
                )
            return
        slot.commit_sent = True
        slot.commits[self.node_id] = slot.digest
        commit = Commit(
            view=slot.view, seq=seq, digest=slot.digest, replica=self.node_id
        )
        self.broadcast(self.peers, commit)
        self._check_committed(seq)
        self._retry_deferred_verification()

    def _retry_deferred_verification(self) -> None:
        """Re-run verification for slots that previously deferred."""
        if not self._deferred_verification:
            return
        pending = sorted(self._deferred_verification)
        self._deferred_verification.clear()
        for seq in pending:
            self._check_prepared(seq)

    def verdict(
        self, value: Any, record_type: str, meta: Optional[Dict[str, Any]]
    ) -> Optional[bool]:
        """The app's verification verdict on a proposal, made total."""
        if record_type == NOOP_RECORD_TYPE:
            return True  # hole fillers are always legal
        try:
            verdict = self.app.verify(value, record_type, meta)
        except Exception:
            # A crashing verification routine must read as a rejection:
            # byzantine proposals may be arbitrarily malformed.
            return False
        if verdict is None:
            return None
        return bool(verdict)

    def handle_commit(self, msg: Commit, src: str) -> None:
        """Tally a commit vote; execute once a quorum exists in order."""
        journal = self._journal
        if journal is not None:
            journal.record(
                self._vote_header, None,
                ("commit", msg.view, msg.seq, msg.digest, msg.replica, src),
            )
        if msg.replica != src:
            return
        slot = self.slots.get(msg.seq)
        if slot is None:
            slot = self.slots[msg.seq] = _Slot(view=msg.view)
        slot.commits[src] = msg.digest
        self._check_committed(msg.seq)

    def _check_committed(self, seq: int) -> None:
        slot = self.slots.get(seq)
        if slot is None or slot.committed or not slot.has_pre_prepare:
            return
        digest = slot.digest
        votes = 0
        for voted in slot.commits.values():
            if voted == digest:
                votes += 1
        if votes < self._commit_quorum:
            return
        if not slot.commit_sent:
            return  # our own verification routine has not accepted it
        slot.committed = True
        self._step(self._execute_ready)

    def _execute_ready(self) -> None:
        """Execute committed slots in strict sequence order."""
        while True:
            seq = self.last_executed + 1
            slot = self.slots.get(seq)
            if slot is None or not slot.committed or slot.executed:
                break
            self._mark_executed(seq, slot, self._probe)
            # Only normal execution answers the origin and votes on
            # checkpoints; a replayed entry (``_apply_caught_up``) was
            # answered and certified by the replicas that vouched for it.
            origin = slot.request_id[0]
            if origin:
                reply = Reply(
                    view=slot.view, seq=seq, digest=slot.digest,
                    request_id=slot.request_id, replica=self.node_id,
                )
                self._send(origin, reply)
            if (
                self.config.checkpoint_interval
                and seq % self.config.checkpoint_interval == 0
            ):
                self._broadcast_checkpoint(seq)
            self._retry_deferred_verification()

    def _mark_executed(self, seq: int, slot: _Slot, probe: Any = None) -> None:
        """The one way a slot becomes executed, by commit quorum or by
        catch-up replay: stop its watchdogs, append its entry, fold its
        digest into the execution chain, run the callbacks."""
        slot.executed = True
        self.last_executed = seq
        if slot.timer is not None:
            slot.timer.cancel()
            slot.timer = None
        rid = slot.request_id
        watchdog = self._request_watchdogs.get(rid)
        if rid != NO_REQUEST and watchdog is not None and watchdog[1] is not None:
            watchdog[1].cancel()
            del self._request_watchdogs[rid]
        if rid != NO_REQUEST and rid in self._executed_requests:
            # A request retried across a view change can commit in
            # two slots; every honest replica executes the second
            # occurrence as a no-op (still replying, in case the
            # origin missed the first round's replies).
            entry = CommittedEntry(
                seq=seq,
                view=slot.view,
                value=NOOP_VALUE,
                record_type=NOOP_RECORD_TYPE,
                meta=None,
                payload_bytes=0,
            )
            executed_digest = _NOOP_FILL_DIGEST
        else:
            if rid != NO_REQUEST:
                # Remembered on the replay path too: without it, a later
                # re-commit of a caught-up request would be applied as a
                # real value here while every normally-executing peer
                # applies it as a duplicate no-op — a log fork.
                self._executed_requests.add(rid)
            entry = CommittedEntry(
                seq=seq,
                view=slot.view,
                value=slot.value,
                record_type=slot.record_type,
                meta=slot.meta,
                payload_bytes=slot.payload_bytes,
                request_id=rid,
            )
            executed_digest = slot.digest
        self.executed_entries.append(entry)
        # Normal execution and catch-up replay chain the same
        # :func:`request_digest` per entry, or a replayed replica's
        # checkpoint votes never match its peers' again.
        self._exec_chain = hashlib.sha256(
            (self._exec_chain + executed_digest).encode()
        ).hexdigest()
        if probe is not None and entry.record_type != NOOP_RECORD_TYPE:
            probe.slot_executed(entry, slot)
        for callback in self.on_executed:
            callback(entry)

    def handle_reply(self, msg: Reply, src: str) -> None:
        """Origin side: resolve the submit future on f+1 matching
        replies for the request's own digest.

        f+1 matching replies for another digest mean at least one honest
        replica executed a different value under this request id (a
        byzantine leader proposed a value it was not sent): the request
        is closed and the future rejected rather than resolved with a
        value that never committed.
        """
        pending = self._pending.get(msg.request_id)
        if pending is None or msg.replica != src:
            return  # a replica may only reply as itself
        pending.replies[src] = (msg.view, msg.seq, msg.digest)
        matching = [
            replica
            for replica, (view, seq, digest) in pending.replies.items()
            if (seq, digest) == (msg.seq, msg.digest)
        ]
        if len(matching) < reply_quorum(self.f):
            return
        request = pending.request
        if msg.digest != request_digest(
            request.value, request.record_type, msg.request_id
        ):
            outcome = VerificationFailed(
                f"request {msg.request_id}: f+1 replicas executed another "
                f"value at seq {msg.seq}"
            )
            self._close_request(msg.request_id, rejected=str(outcome))
        else:
            outcome = None
            self._close_request(msg.request_id, seq=msg.seq)
        if pending.timer is not None:
            # The request is done: the armed retry timer will never do
            # anything again. Cancelling turns it into a heap tombstone
            # (swept by compaction) instead of a guaranteed future
            # no-op firing — in a sustained run these dead retry timers
            # are the dominant long-dated heap population.
            pending.timer.cancel()
        if pending.future.resolved:
            return
        if outcome is not None:
            pending.future.reject(outcome)
            return
        pending.future.resolve(
            CommittedEntry(
                seq=msg.seq,
                view=msg.view,
                value=request.value,
                record_type=request.record_type,
                meta=request.meta,
                payload_bytes=request.payload_bytes,
            )
        )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    @staticmethod
    def _snapshot_digest_of(payload: Any) -> str:
        """Digest of a checkpoint's snapshot payload ("" for None)."""
        if payload is None:
            return ""
        return payload.digest()

    def _broadcast_checkpoint(self, seq: int) -> None:
        if seq <= self.stable_checkpoint:
            # A quorum already certified this watermark (we learned the
            # certificate before executing the slot ourselves); voting
            # again would only leak a payload nobody can count.
            return
        payload = self.app.checkpoint_payload(seq)
        snapshot_digest = self._snapshot_digest_of(payload)
        if payload is not None:
            self._checkpoint_payloads[seq] = payload
        checkpoint = Checkpoint(
            seq=seq,
            state_digest=self._exec_chain,
            snapshot_digest=snapshot_digest,
            signature=self.app.sign_checkpoint(
                checkpoint_digest(seq, self._exec_chain, snapshot_digest)
            ),
            replica=self.node_id,
        )
        self.broadcast(self.peers, checkpoint)
        self._send(self.node_id, checkpoint)

    def handle_checkpoint(self, msg: Checkpoint, src: str) -> None:
        """Gather checkpoint votes; stabilize on a quorum of matching
        (state, snapshot) digests."""
        if msg.replica != src or msg.seq <= self.stable_checkpoint:
            return
        if not self.app.checkpoint_vote_valid(msg):
            return
        votes = self._checkpoints.setdefault(msg.seq, {})
        votes[src] = msg
        tally: Dict[Tuple[str, str], int] = {}
        for vote in votes.values():
            key = (vote.state_digest, vote.snapshot_digest)
            tally[key] = tally.get(key, 0) + 1
        for (state_digest, snapshot_digest), count in tally.items():
            if count >= commit_quorum(self.f):
                self._step(
                    self._stabilize_checkpoint,
                    msg.seq, state_digest, snapshot_digest, votes,
                )
                return

    def _stabilize_checkpoint(
        self,
        seq: int,
        state_digest: str,
        snapshot_digest: str,
        votes: Dict[str, Checkpoint],
    ) -> None:
        signatures = tuple(
            (replica, vote.signature)
            for replica, vote in sorted(votes.items())
            if vote.signature is not None
            and (vote.state_digest, vote.snapshot_digest)
            == (state_digest, snapshot_digest)
        )
        certificate = CheckpointCertificate(
            seq=seq,
            state_digest=state_digest,
            snapshot_digest=snapshot_digest,
            signatures=signatures,
        )
        self.stable_checkpoint = seq
        self.stable_certificate = certificate
        # Our own payload for this watermark becomes the served stable
        # snapshot — but only if it matches what the quorum certified
        # (a divergent local state must never be served as certified).
        payload = None
        for pending_seq in [s for s in self._checkpoint_payloads if s <= seq]:
            stored = self._checkpoint_payloads.pop(pending_seq)
            if pending_seq == seq:
                payload = stored
        if (
            payload is not None
            and self._snapshot_digest_of(payload) == snapshot_digest
        ):
            self._stable_snapshot_payload = payload
        self._gc_below(seq, executed_only=True)
        if self.config.gc_executed_log:
            self._truncate_executed_entries(min(seq, self.last_executed))
        if self._journal is not None:
            self._journal.emit(
                "pbft.stable_checkpoint", self.site, self.node_id, None,
                seq=seq, snapshot_digest=snapshot_digest,
            )
        if seq <= self.last_executed:
            self.app.on_stable_checkpoint(
                seq, certificate, self._stable_snapshot_payload
            )
            # Verifications deferred on checkpoint lag (e.g. Blockplane
            # truncation proposals) may be decidable now.
            self._retry_deferred_verification()
        else:
            # 2f+1 replicas checkpointed state we have not even
            # executed: proof we are behind — state-transfer.
            self._request_catch_up()

    def _gc_below(self, seq: int, executed_only: bool) -> None:
        """Drop per-sequence book-keeping at or below a stable
        watermark: slots (with ``executed_only``, a slot we have yet to
        execute ourselves survives), checkpoint votes, and catch-up
        staging and sequence assignments for what we have executed."""
        for slot_seq in [s for s in self.slots if s <= seq]:
            if not executed_only or self.slots[slot_seq].executed:
                del self.slots[slot_seq]
        for vote_seq in [s for s in self._checkpoints if s <= seq]:
            del self._checkpoints[vote_seq]
        dead = min(seq, self.last_executed)
        for staged_seq in [s for s in self._catch_up if s <= dead]:
            del self._catch_up[staged_seq]
        self._assigned_requests = {
            request_id: assigned
            for request_id, assigned in self._assigned_requests.items()
            if assigned > dead
        }

    def _truncate_executed_entries(self, seq: int) -> None:
        """Drop executed entries at or below ``seq`` (the retained
        suffix stays served by catch-up; anything lower is reachable
        only through snapshot state transfer)."""
        if seq <= self._executed_gc_seq:
            return
        self._executed_gc_seq = seq
        cut = bisect.bisect_right(
            self.executed_entries, seq, key=lambda entry: entry.seq
        )
        if cut:
            del self.executed_entries[:cut]

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------
    def start_view_change(self, new_view: int) -> None:
        """Vote to replace the current leader with ``new_view``'s."""
        if new_view <= self.view or new_view <= self._voted_view:
            return
        self._voted_view = new_view
        self.in_view_change = True
        # Certificates cover every prepared slot above the stable
        # checkpoint — *including executed ones* (Castro & Liskov §4.4:
        # executed slots are only safe to omit once a checkpoint proves
        # them). Dropping them would let a lagging new leader plug a
        # committed sequence number with a no-op or a stale value, and
        # commit it on other laggards: a fork.
        prepared = [
            PreparedCertificate(
                view=slot.view,
                seq=seq,
                digest=slot.digest,
                value=slot.value,
                record_type=slot.record_type,
                meta=slot.meta,
                request_id=slot.request_id,
                trace=slot.trace,
            )
            for seq, slot in sorted(self.slots.items())
            if slot.has_pre_prepare
            and (
                self._matching_votes(slot.prepares, slot.digest)
                >= commit_quorum(self.f)
                or slot.executed
            )
        ]
        vote = ViewChange(
            new_view=new_view,
            last_executed=self.last_executed,
            prepared=prepared,
            replica=self.node_id,
        )
        self._last_view_change_vote = vote
        if self._probe is not None:
            self._probe.view_change_started()
        if self._journal is not None:
            self._journal.emit(
                "pbft.view_change", self.site, self.node_id, None,
                new_view=new_view, last_executed=self.last_executed,
                suspected_leader=self.leader_of(self.view),
            )
        self.broadcast(self.peers, vote)
        self._send(self.node_id, vote)
        # Exponential backoff (standard PBFT): if view changes keep
        # failing — e.g. too many replicas are down for any progress —
        # escalation slows instead of spinning.
        self._escalations += 1
        backoff = self.config.view_change_timeout_ms * (
            2 ** min(self._escalations - 1, 8)
        )
        self.set_timer(backoff, self._view_change_timeout, new_view)

    def _view_change_timeout(self, voted_view: int) -> None:
        if self.view >= voted_view or self._voted_view != voted_view:
            return
        # A stuck view change often means we — not the leader — are the
        # problem: a recovered or isolated replica suspecting a group
        # that is live without it. Probe for committed state we missed;
        # if f+1 peers vouch for entries beyond our watermark, the
        # catch-up path rejoins the current view.
        self._request_catch_up()
        # Escalate when work is stuck behind the suspect leader, and
        # also when the stalled view gathered a full quorum of votes:
        # its prospective leader had everything needed to install the
        # view and never did (e.g. it is silently byzantine), so waiting
        # for it is hopeless. Without the quorum clause, replicas with
        # no local pending work would re-announce the same vote forever
        # and the f+1 join rule could never advance past the dead view.
        votes_for_view = len(self._view_change_votes.get(voted_view, {}))
        if self._has_progress_pressure() or votes_for_view >= commit_quorum(self.f):
            # The view change itself is stuck (its leader may be down):
            # escalate.
            self.start_view_change(voted_view + 1)
        else:
            # Nothing urgent; keep re-announcing our vote so recovered
            # replicas can join, and check again later.
            if self._last_view_change_vote is not None:
                self.broadcast(self.peers, self._last_view_change_vote)
            self.set_timer(
                self.config.view_change_timeout_ms,
                self._view_change_timeout,
                voted_view,
            )

    def handle_view_change(self, msg: ViewChange, src: str) -> None:
        """Tally view-change votes; the new leader installs the view."""
        if msg.replica != src or msg.new_view <= self.view:
            return
        votes = self._view_change_votes.setdefault(msg.new_view, {})
        votes[src] = msg
        self._highest_vote[src] = max(
            self._highest_vote.get(src, 0), msg.new_view
        )
        self._step(self._view_change_quorums, msg.new_view, votes)

    def _view_change_quorums(self, new_view: int, votes: Dict) -> None:
        # Join rule: once f+1 distinct replicas demand views above ours,
        # at least one of them is honest — adopt the (f+1)-th highest
        # demanded view so votes can converge even if suspecters
        # escalated at different rates. Our own vote reaches the tally
        # through the outbox, after this step.
        higher = self._above_own_view(self._highest_vote)
        if higher is not None and higher > self._voted_view:
            self.start_view_change(higher)
        if len(votes) < commit_quorum(self.f):
            return
        if self.leader_of(new_view) != self.node_id:
            return
        self._install_view_as_leader(new_view, list(votes.values()))

    def _above_own_view(self, views: Dict[str, int]) -> Optional[int]:
        """The (f+1)-th highest of the views peers name above ours, or
        None if fewer than f+1 peers name one."""
        higher = sorted(
            (view for view in views.values() if view > self.view),
            reverse=True,
        )
        return higher[self.f] if len(higher) >= reply_quorum(self.f) else None

    def _install_view_as_leader(
        self, new_view: int, votes: List[ViewChange]
    ) -> None:
        best: Dict[int, PreparedCertificate] = {}
        for vote in votes:
            for cert in vote.prepared:
                current = best.get(cert.seq)
                if current is None or cert.view > current.view:
                    best[cert.seq] = cert
        max_executed = max(vote.last_executed for vote in votes)
        max_executed = max(max_executed, self.last_executed)
        pre_prepares = []
        for seq in sorted(best):
            if seq <= self.last_executed:
                continue
            cert = best[seq]
            pre_prepares.append(
                self._pre_prepare(new_view, seq, cert.digest, cert)
            )
        self._enter_view(new_view)
        self.next_seq = max(
            [max_executed + 1] + [pp.seq + 1 for pp in pre_prepares]
        )
        # Fill sequence holes left by the deposed leader (numbers it
        # assigned to proposals that can never commit) with no-ops so
        # in-order execution cannot stall behind them.
        proposed_seqs = {pp.seq for pp in pre_prepares}
        for seq in range(self.last_executed + 1, self.next_seq):
            if seq in proposed_seqs:
                continue
            slot = self.slots.get(seq)
            if slot is not None and (slot.committed or slot.commit_sent):
                continue
            pre_prepares.append(
                self._pre_prepare(new_view, seq, _NOOP_FILL_DIGEST, _NOOP_FILL)
            )
        pre_prepares.sort(key=lambda pp: pp.seq)
        new_view_msg = NewView(
            new_view=new_view, pre_prepares=pre_prepares, replica=self.node_id
        )
        if self._journal is not None:
            self._journal.emit(
                "pbft.new_view", self.site, self.node_id, None,
                view=new_view, reproposed=len(pre_prepares),
            )
        self.broadcast(self.peers, new_view_msg)
        for pre_prepare in pre_prepares:
            self._accept_pre_prepare(pre_prepare, self.node_id)
        self._resubmit_pending()
        if self.last_executed < max_executed:
            self._request_catch_up()

    def handle_new_view(self, msg: NewView, src: str) -> None:
        """Adopt the announced view and replay re-proposed slots."""
        if msg.new_view > self.view and src == self.leader_of(msg.new_view):
            self._step(self._enter_new_view, msg, src)

    def _enter_new_view(self, msg: NewView, src: str) -> None:
        self._enter_view(msg.new_view)
        self._voted_view = max(self._voted_view, msg.new_view)
        for pre_prepare in msg.pre_prepares:
            self._accept_pre_prepare(pre_prepare, src)
        # The new leader only re-proposes above its own execution
        # watermark; if ours is further behind, the gap is stably
        # committed elsewhere — fetch it.
        first = min(
            (pre_prepare.seq for pre_prepare in msg.pre_prepares),
            default=None,
        )
        if first is not None and first > self.last_executed + 1:
            self._request_catch_up()
        self._resubmit_pending()

    def _enter_view(self, new_view: int) -> None:
        self.view = new_view
        # Votes for views we reached are never read again.
        for view in [v for v in self._view_change_votes if v <= new_view]:
            del self._view_change_votes[view]
        self._rejoin_view()
        self.app.on_view_installed(new_view)

    def _rejoin_view(self) -> None:
        """Stop suspecting the current view's leader: a view was just
        installed, or ``f + 1`` peers proved the group live without us."""
        self.in_view_change = False
        self._escalations = 0

    def _resubmit_pending(self) -> None:
        for request_id in list(self._pending):
            self._dispatch_request(request_id)

    # ------------------------------------------------------------------
    # Catch-up / recovery
    # ------------------------------------------------------------------
    def on_recover(self) -> None:
        """After a benign crash, re-fetch the suffix of the log."""
        self._request_catch_up()
        if self.in_view_change:
            # Timers armed before the crash were suppressed while the
            # node was down. A replica that crashed mid-view-change may
            # have missed the NewView entirely (installed while it was
            # dark); without a fresh timeout it would wait forever. The
            # timeout path retries catch-up and re-announces the vote
            # until the replica converges on the group's current view.
            self.set_timer(
                self.config.view_change_timeout_ms,
                self._view_change_timeout,
                self._voted_view,
            )

    def _request_catch_up(self) -> None:
        request = CatchUpRequest(
            from_seq=self.last_executed + 1, replica=self.node_id
        )
        self.broadcast(self.peers, request)

    def handle_catch_up_request(self, msg: CatchUpRequest, src: str) -> None:
        """Serve committed entries above the requester's watermark —
        behind the stable certificate and its snapshot when the
        requester needs history we garbage-collected."""
        certificate = snapshot = None
        from_seq = msg.from_seq
        if from_seq <= self._executed_gc_seq:
            stable = self.stable_certificate
            payload = self._stable_snapshot_payload
            if (
                stable is not None
                and self._snapshot_digest_of(payload) == stable.snapshot_digest
            ):
                certificate, snapshot = stable, payload
                from_seq = stable.seq + 1
            # Otherwise (e.g. we just caught up ourselves and our
            # payload predates the quorum's) serve whatever suffix we
            # still retain: another peer's snapshot completes the
            # transfer.
        entries = self._retained_from(from_seq)
        if certificate is not None or entries:
            self.send(
                src,
                CatchUpResponse(
                    payload_bytes=sum(entry.payload_bytes for entry in entries),
                    entries=entries,
                    view=self.view,
                    replica=self.node_id,
                    certificate=certificate,
                    snapshot=snapshot,
                ),
            )

    def _retained_from(self, seq: int) -> List[CommittedEntry]:
        """The retained executed entries from ``seq`` on.
        ``executed_entries`` is append-only in execution order, so the
        suffix starts at a binary-searchable index — a full scan here
        made every catch-up O(total log)."""
        start = bisect.bisect_left(
            self.executed_entries, seq, key=lambda entry: entry.seq
        )
        return self.executed_entries[start:]

    def handle_catch_up_response(self, msg: CatchUpResponse, src: str) -> None:
        """Install a certified snapshot that beats our watermark, then
        adopt entries vouched for, and a view reported, by f+1 distinct
        peers."""
        if msg.replica == src:
            self._step(self._caught_up, msg, src)

    def _caught_up(self, msg: CatchUpResponse, src: str) -> None:
        """Install the response's snapshot, tally its entries, then its
        view: a backup enters the (f+1)-th highest view reported above
        its own, since the group moved on while it was down. A replica
        leading its current view does not adopt; that stale-leader case
        is still open."""
        certificate = msg.certificate
        if certificate is not None and certificate.seq > self.last_executed:
            if (
                self.app.certificate_valid(certificate)
                and self._snapshot_digest_of(msg.snapshot)
                == certificate.snapshot_digest
                and self.app.install_snapshot(msg.snapshot, certificate.seq)
            ):
                self._adopt_snapshot(certificate, msg.snapshot)
            else:
                self.snapshot_offers_rejected += 1
                if self._journal is not None:
                    self._journal.emit(
                        "pbft.snapshot_reject", self.site, self.node_id, None,
                        src=src, seq=certificate.seq,
                        snapshot_digest=certificate.snapshot_digest,
                    )
                return  # a lying offer taints the whole response
        for entry in msg.entries:
            if entry.seq <= self.last_executed:
                continue
            digest = request_digest(
                entry.value, entry.record_type, entry.request_id
            )
            # Staging, not state: _apply_caught_up installs an entry
            # only once reply_quorum(f) sources vouch for its digest.
            staged = self._catch_up.setdefault(entry.seq, {})
            voters = staged[digest][0] if digest in staged else set()
            voters.add(src)
            staged[digest] = (voters, entry)
        self._apply_caught_up()
        self._reported_views[src] = msg.view
        target = None if self.is_leader else self._above_own_view(self._reported_views)
        if target is not None:
            self._enter_view(target)
            self._voted_view = max(self._voted_view, target)
            self._resubmit_pending()

    def _adopt_snapshot(
        self, certificate: CheckpointCertificate, payload: Any
    ) -> None:
        """Jump execution state to a certified watermark (the app
        already installed the snapshot payload)."""
        seq = certificate.seq
        self.snapshot_installs += 1
        self.last_executed = seq
        self._exec_chain = certificate.state_digest
        self.stable_checkpoint = seq
        self.stable_certificate = certificate
        self._stable_snapshot_payload = payload
        # Everything we retained is below the watermark (install only
        # happens for certificates beyond our execution point).
        self._truncate_executed_entries(seq)
        self._gc_below(seq, executed_only=False)
        if self._journal is not None:
            self._journal.emit(
                "pbft.snapshot_install", self.site, self.node_id, None,
                seq=seq, snapshot_digest=certificate.snapshot_digest,
            )
        # Same rationale as in ``_apply_caught_up``: the group is
        # provably live beyond our old watermark.
        self._rejoin_view()
        self._execute_ready()
        self._retry_deferred_verification()

    def _apply_caught_up(self) -> None:
        advanced = False
        while True:
            seq = self.last_executed + 1
            staged = self._catch_up.get(seq)
            if staged is None:
                break
            adopted = None
            for digest, (voters, entry) in staged.items():
                if len(voters) >= reply_quorum(self.f):
                    adopted = entry
                    break
            if adopted is None:
                break
            advanced = True
            slot = self.slots.setdefault(seq, _Slot(view=adopted.view))
            slot.accept(adopted.view, digest, adopted)
            slot.committed = True
            slot.commit_sent = True
            del self._catch_up[seq]
            self._mark_executed(seq, slot)
        if advanced:
            # f+1 peers vouched for commits beyond our old watermark:
            # the group is live without us, so our leader suspicion was
            # founded on stale state. Rejoin the current view rather
            # than waiting for view-change support that will never come
            # (an honest majority making progress never joins it).
            self._rejoin_view()
            # Entries below the new watermark can now be truncated if a
            # quorum checkpointed past them; more importantly, anything
            # deferred on execution order may now be ready.
            self._execute_ready()
            self._retry_deferred_verification()
