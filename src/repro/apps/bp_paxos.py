"""Blockplane-Paxos: the byzantized Paxos of Algorithm 3 / Section VI-E.

The benign protocol — the :class:`~repro.paxos.core.PaxosCore` the flat
baseline runs too — hosted on the Blockplane programming model: every
transition is a ``log_commit``, every message crosses through
``send``/``receive``, and verification routines let unit replicas judge
each transition by the core's own acceptor rule. The wide-area pattern
stays Paxos's single round trip to a majority — byzantine masking
happens inside each datacenter — which is why Figure 7 shows
Blockplane-Paxos far below flat PBFT.

Algorithm 3's ``r`` and ``l`` are the core's ``ballot`` and ``leader``;
``max_val``, committed with ``leader-elected``, is the ``(slot, value)``
pairs the election adopted (None if none), each re-proposed at its own
slot before the election returns.

Every committed event and every message is a *record*: a sorted tuple
of ``(field, value)`` pairs built by :func:`paxos_record` and read through
:func:`record_field`, e.g. ``(("ballot", (1, "V")), ("event", "promise"))``.
Records hold only ``tuple``/``str``/``int``/``bool``/``None`` (plus the
caller's replicated value), so they are deeply immutable: the
identity-keyed digest memo canonicalises each one once instead of once
per replica per digest formula, and the wire codec's tuple fidelity
decodes them to an equal value. Events carry an ``event`` field,
messages a ``type`` and a ``sender``; a promise's ``accepted`` is a
sorted tuple of ``(slot, (ballot, value))``. A refusing acceptor
commits a ``reject`` event and answers ``ok=False`` with ``promised``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.records import (
    LogEntry,
    RECORD_COMMUNICATION,
    RECORD_LOG_COMMIT,
)
from repro.core.verification import VerificationRoutines
from repro.paxos.core import PaxosAcceptor, PaxosCore
from repro.sim.process import Future

if TYPE_CHECKING:
    from repro.core.api import BlockplaneAPI


# Tuples, not sets: membership of an unhashable byzantine field is False.
_EVENTS = (
    "election-start",
    "ballot-update",
    "leader-elected",
    "replication-start",
    "promise",
    "accept",
    "reject",
    "value-committed",
    "step-down",
)
_MESSAGES = ("paxos-prepare", "paxos-promise", "paxos-propose", "paxos-accept")

#: Committed event -> the protocol message it warrants, and how many.
_WARRANTS = (
    ("election-start", "paxos-prepare", 16),
    ("replication-start", "paxos-propose", 16),
    ("promise", "paxos-promise", 1),
    ("accept", "paxos-accept", 1),
)

#: A protocol record: sorted ``(field, value)`` pairs (module docstring).
Record = Tuple[Tuple[str, Any], ...]


def paxos_record(**fields: Any) -> Record:
    """The one constructor of committed events and sent messages."""
    return tuple(sorted(fields.items()))


def record_field(record: Any, name: str) -> Any:
    """``name``'s value in ``record``; None when it is absent or when
    ``record`` is no record at all (byzantine input must not raise)."""
    if type(record) is tuple:
        for pair in record:
            if type(pair) is tuple and len(pair) == 2 and pair[0] == name:
                return pair[1]
    return None


def _is_ballot(ballot: Any) -> bool:
    """Whether ``ballot`` is a well-formed, comparable ``(int, str)``."""
    return (
        type(ballot) is tuple
        and len(ballot) == 2
        and type(ballot[0]) is int
        and type(ballot[1]) is str
    )


class PaxosVerification(PaxosAcceptor, VerificationRoutines):
    """Stateful verification routines for Blockplane-Paxos.

    An acceptor replayed from the node's Local Log: a committed
    ``ballot-update`` (the proposer promising its own ballot),
    ``promise`` or ``accept`` runs the core's promise transition (an
    accept moves ``promised`` as a promise does; no values are kept).
    It also counts the committed-but-unsent protocol events, so
    replicas reject:

    * a ``promise``/``accept`` event the acceptor rule refuses at the
      replayed state, and a ``reject`` event it would grant, and
    * outgoing protocol messages with no committed event warranting
      them (a malicious unit member inventing traffic).
    """

    def __init__(self) -> None:
        super().__init__()
        self._sendable: Dict[str, int] = {}

    def bind(self, node) -> None:
        node.on_log_append.append(self._replay)

    def _replay(self, entry: LogEntry) -> None:
        if entry.record_type == RECORD_COMMUNICATION:
            kind = record_field(entry.value, "type")
            if kind in self._sendable:
                self._sendable[kind] -= 1
        elif entry.record_type == RECORD_LOG_COMMIT:
            event = record_field(entry.value, "event")
            ballot = record_field(entry.value, "ballot")
            if event in ("ballot-update", "promise", "accept") and _is_ballot(ballot):
                self.promise(ballot)
            if event == "reject":  # warrants the refused request's reply
                slot = record_field(entry.value, "slot")
                event = "promise" if slot is None else "accept"
            for name, kind, count in _WARRANTS:
                if event == name:
                    self._sendable[kind] = self._sendable.get(kind, 0) + count

    def verify_log_commit(
        self, value: Any, meta: Optional[Dict[str, Any]]
    ) -> bool:
        event = record_field(value, "event")
        if event not in _EVENTS:
            return False
        if event in ("promise", "accept", "reject"):
            # A grant the acceptor rule admits at the replayed state; a
            # refusal, one it refuses.
            ballot = record_field(value, "ballot")
            return _is_ballot(ballot) and self.admits(ballot) != (event == "reject")
        return True

    def verify_send(
        self, message: Any, destination: str, meta: Optional[Dict[str, Any]]
    ) -> bool:
        kind = record_field(message, "type")
        if kind not in _MESSAGES:
            return False
        # Each send must be warranted by a committed protocol event.
        return self._sendable.get(kind, 0) > 0


class BlockplanePaxosParticipant:
    """One Paxos participant speaking only through Blockplane.

    Args:
        api: The participant's Blockplane API handle.
        participants: All participant names (including this one).
    """

    def __init__(self, api: BlockplaneAPI, participants: List[str]) -> None:
        self.api = api
        self.name = api.participant
        self.participants = list(participants)
        self.core = PaxosCore(self.name, self.participants)
        self.accepted = self.core.accepted
        self.chosen = self.core.chosen
        self._collectors: Dict[Tuple, Future] = {}  # by tally key
        self._pump = None

    @property
    def l(self) -> bool:  # noqa: E743 - Algorithm 3's name
        """Whether this participant believes it is the leader."""
        return self.core.leader

    @property
    def others(self) -> List[str]:
        """All participants but this one."""
        return [p for p in self.participants if p != self.name]

    def start(self) -> None:
        """Start the receive pump (dispatching incoming messages)."""
        if self._pump is None:
            self._pump = self.api.sim.spawn(self._pump_loop())

    def _pump_loop(self):
        while True:
            message = yield self.api.receive()
            if not _is_ballot(record_field(message, "ballot")):
                continue
            kind = record_field(message, "type")
            if kind in ("paxos-prepare", "paxos-propose"):
                self.api.sim.spawn(self._answer(message))
            elif kind in ("paxos-promise", "paxos-accept"):
                self._feed_collector(message)

    # ------------------------------------------------------------------
    # Algorithm 3 — LeaderElection
    # ------------------------------------------------------------------
    def leader_election(self):
        """Generator process implementing the LeaderElection routine.

        Returns whether this participant won; a winner has re-proposed
        every value the election adopted.
        """
        yield self.api.log_commit(
            paxos_record(event="election-start"), payload_bytes=64
        )
        outcome = self.core.start_election()
        ballot = self.core.ballot
        update = paxos_record(event="ballot-update", ballot=ballot)
        yield self.api.log_commit(update, payload_bytes=64)
        collector = self._collect((ballot, None), outcome)
        prepare = paxos_record(type="paxos-prepare", ballot=ballot, sender=self.name)
        for participant in self.others:
            yield self.api.send(prepare, to=participant, payload_bytes=64)
        if not (yield collector):
            yield self.api.log_commit(
                paxos_record(event="step-down", ballot=self.core.ballot),
                payload_bytes=64,
            )
            return False
        adopted = tuple(self.core.adopted)
        yield self.api.log_commit(
            paxos_record(event="leader-elected", leader=True, max_val=adopted or None),
            payload_bytes=64,
        )
        for slot, value in adopted:
            if (yield from self._replicate(value, 64, slot)) is None:
                return False
        return self.l

    # ------------------------------------------------------------------
    # Algorithm 3 — Replication
    # ------------------------------------------------------------------
    def replicate(self, value: Any, payload_bytes: int = 1000):
        """Generator process implementing the Replication routine.

        Returns the slot on success, None if not leader / deposed.
        """
        return (yield from self._replicate(value, payload_bytes, None))

    def _replicate(self, value: Any, payload_bytes: int, slot: Optional[int]):
        """Phase 2 for ``value`` at ``slot`` (the next free one if None)."""
        yield self.api.log_commit(
            paxos_record(event="replication-start", value="<batch>"),
            payload_bytes=payload_bytes,
        )
        if not self.l:
            return None
        if slot is None:
            slot = self.core.claim_slot()
        ballot = self.core.ballot
        collector = self._collect((ballot, slot), self.core.propose(slot, value))
        propose = paxos_record(
            type="paxos-propose",
            ballot=ballot,
            slot=slot,
            value=value,
            sender=self.name,
        )
        for participant in self.others:
            yield self.api.send(
                propose, to=participant, payload_bytes=payload_bytes
            )
        if (yield collector):
            yield self.api.log_commit(
                paxos_record(event="value-committed", slot=slot),
                payload_bytes=64,
            )
            return slot
        yield self.api.log_commit(
            paxos_record(event="step-down", ballot=self.core.ballot), payload_bytes=64
        )
        return None

    # ------------------------------------------------------------------
    # Acceptor (the routines the paper omits "for brevity")
    # ------------------------------------------------------------------
    def _answer(self, message: Record):
        """Commit the core's transition for a prepare or a propose, then
        answer it; a refusal commits ``reject`` and names ``promised``."""
        ballot = record_field(message, "ballot")
        if record_field(message, "type") == "paxos-prepare":
            kind, event, where = "paxos-promise", "promise", {}
            accepted = self.core.promise(ballot)
            ok = accepted is not None
            extra = {"accepted": tuple(sorted(accepted.items()))} if ok else {}
        else:
            slot = record_field(message, "slot")
            kind, event, where, extra = "paxos-accept", "accept", {"slot": slot}, {}
            ok = self.core.accept(ballot, slot, record_field(message, "value"))
        if not ok:
            event, extra = "reject", {"promised": self.core.promised}
        yield self.api.log_commit(
            paxos_record(event=event, ballot=ballot, **where), payload_bytes=64
        )
        reply = paxos_record(
            type=kind, ballot=ballot, ok=ok, sender=self.name, **where, **extra
        )
        sender = record_field(message, "sender")
        yield self.api.send(reply, to=sender, payload_bytes=64)

    # ------------------------------------------------------------------
    # Response collection
    # ------------------------------------------------------------------
    def _collect(self, key: Tuple, outcome: Optional[bool]) -> Future:
        """The future a routine awaits for tally ``key``: resolved now if
        our own answer decided it, else by the answer that does."""
        future = Future(self.api.sim, label=f"collect:{key}")
        if outcome is None:
            self._collectors[key] = future
        else:
            future.resolve(outcome)
        return future

    def _feed_collector(self, message: Record) -> None:
        ballot = record_field(message, "ballot")
        slot = record_field(message, "slot")
        sender = record_field(message, "sender")
        if record_field(message, "ok"):
            accepted = record_field(message, "accepted") or ()
            outcome = self.core.vote(sender, ballot, slot, accepted=accepted)
        else:
            promised = record_field(message, "promised")
            if not _is_ballot(promised):
                return
            outcome = self.core.vote(sender, ballot, slot, promised=promised)
        # A decided tally is closed: late answers find no collector.
        if outcome is not None:
            collector = self._collectors.pop((ballot, slot), None)
            if collector is not None:
                collector.resolve(outcome)
