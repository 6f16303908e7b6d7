"""Blockplane-Paxos: the byzantized Paxos of Algorithm 3 / Section VI-E.

Plain (benign) Paxos, written against the Blockplane programming model:
every state change is a ``log_commit``, every message crosses through
``send``/``receive``, and verification routines let unit replicas judge
each transition. The wide-area pattern stays Paxos's single round trip
to a majority — byzantine masking happens inside each datacenter —
which is why Figure 7 shows Blockplane-Paxos far below flat PBFT.

The participant state mirrors the paper's Algorithm 3:

* ``r`` — the proposal (ballot) number, unique per participant,
* ``l`` — whether this participant believes it is the leader,
* ``max_val`` — the highest-ballot accepted value learned during
  leader election (it must be proposed first, per Paxos's rule).

Every committed event and every message is a *record*: a sorted tuple
of ``(field, value)`` pairs built by :func:`paxos_record` and read through
:func:`record_field`, e.g. ``(("ballot", (1, "V")), ("event", "promise"))``.
Records hold only ``tuple``/``str``/``int``/``bool``/``None`` (plus the
caller's replicated value), so they are deeply immutable: the
identity-keyed digest memo canonicalises each one once instead of once
per replica per digest formula, and the wire codec's tuple fidelity
decodes them to an equal value. Events carry an ``event`` field,
messages a ``type`` and a ``sender``; a promise's ``accepted`` is a
sorted tuple of ``(slot, (ballot, value))``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.records import (
    LogEntry,
    RECORD_COMMUNICATION,
    RECORD_LOG_COMMIT,
)
from repro.core.verification import VerificationRoutines
from repro.pbft.quorums import majority
from repro.sim.process import Future

if TYPE_CHECKING:
    from repro.core.api import BlockplaneAPI


#: Ballot: (round, participant) — lexicographic order, globally unique.
Ballot = Tuple[int, str]

# Tuples, not sets: membership of an unhashable byzantine field is False.
_EVENTS = (
    "election-start",
    "ballot-update",
    "leader-elected",
    "replication-start",
    "promise",
    "accept",
    "value-committed",
    "step-down",
)
_MESSAGES = ("paxos-prepare", "paxos-promise", "paxos-propose", "paxos-accept")

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


class PaxosVerification(VerificationRoutines):
    """Stateful verification routines for Blockplane-Paxos.

    Replays the node's Local Log to track the promised ballot and the
    set of committed-but-unsent protocol events, so replicas reject:

    * promise/accept events that would *lower* the promised ballot
      (an illegal acceptor transition), and
    * outgoing protocol messages with no committed event warranting
      them (a malicious unit member inventing traffic).
    """

    def __init__(self) -> None:
        self.promised: Ballot = (0, "")
        self._sendable: Dict[str, int] = {}

    def bind(self, node) -> None:
        node.on_log_append.append(self._replay)

    def _replay(self, entry: LogEntry) -> None:
        if entry.record_type == RECORD_LOG_COMMIT:
            event = record_field(entry.value, "event")
            if event in ("promise", "accept"):
                ballot = record_field(entry.value, "ballot")
                if _is_ballot(ballot) and ballot >= self.promised:
                    self.promised = ballot
                kind = (
                    "paxos-promise" if event == "promise" else "paxos-accept"
                )
                self._sendable[kind] = self._sendable.get(kind, 0) + 1
            elif event == "election-start":
                self._sendable["paxos-prepare"] = (
                    self._sendable.get("paxos-prepare", 0) + 16
                )
            elif event == "replication-start":
                self._sendable["paxos-propose"] = (
                    self._sendable.get("paxos-propose", 0) + 16
                )
        elif entry.record_type == RECORD_COMMUNICATION:
            kind = record_field(entry.value, "type")
            if kind in self._sendable:
                self._sendable[kind] -= 1

    def verify_log_commit(
        self, value: Any, meta: Optional[Dict[str, Any]]
    ) -> bool:
        event = record_field(value, "event")
        if event not in _EVENTS:
            return False
        if event in ("promise", "accept"):
            ballot = record_field(value, "ballot")
            return _is_ballot(ballot) and ballot >= self.promised
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
        # -- Algorithm 3 state --
        self.r: Ballot = (0, self.name)
        self.l = False
        self.max_val: Any = None
        # -- acceptor state --
        self.promised: Ballot = (0, "")
        self.accepted: Dict[int, Tuple[Ballot, Any]] = {}
        # -- learner state --
        self.chosen: Dict[int, Any] = {}
        self.next_slot = 1
        self._collectors: Dict[Tuple, Dict[str, Any]] = {}
        self._pump = None

    @property
    def majority(self) -> int:
        """Participants needed for a quorum (including ourselves)."""
        return majority(len(self.participants))

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
            if kind == "paxos-prepare":
                self.api.sim.spawn(self._on_prepare(message))
            elif kind == "paxos-propose":
                self.api.sim.spawn(self._on_propose(message))
            elif kind in ("paxos-promise", "paxos-accept"):
                self._feed_collector(message)

    # ------------------------------------------------------------------
    # Algorithm 3 — LeaderElection
    # ------------------------------------------------------------------
    def leader_election(self):
        """Generator process implementing the LeaderElection routine."""
        yield self.api.log_commit(
            paxos_record(event="election-start"), payload_bytes=64
        )
        self.r = (self.r[0] + 1, self.name)
        yield self.api.log_commit(
            paxos_record(event="ballot-update", ballot=self.r),
            payload_bytes=64,
        )
        collector = self._make_collector(("promise", self.r), self.majority - 1)
        prepare = paxos_record(
            type="paxos-prepare", ballot=self.r, sender=self.name
        )
        for participant in self.others:
            yield self.api.send(prepare, to=participant, payload_bytes=64)
        responses = yield collector
        positive = [resp for resp in responses if record_field(resp, "ok")]
        if len(positive) + 1 >= self.majority:  # +1: our own vote
            self.l = True
            self.max_val = self._maximum_accepted_value(positive)
            yield self.api.log_commit(
                paxos_record(
                    event="leader-elected", leader=True, max_val=self.max_val
                ),
                payload_bytes=64,
            )
        else:
            self.r = (self.r[0] + 1, self.name)
            yield self.api.log_commit(
                paxos_record(event="ballot-update", ballot=self.r),
                payload_bytes=64,
            )
        return self.l

    @staticmethod
    def _maximum_accepted_value(responses: List[Record]) -> Any:
        best_ballot: Optional[Ballot] = None
        best_value: Any = None
        for response in responses:
            accepted = record_field(response, "accepted") or ()
            for _slot, (ballot, value) in accepted:
                if best_ballot is None or ballot > best_ballot:
                    best_ballot = ballot
                    best_value = value
        return best_value

    # ------------------------------------------------------------------
    # Algorithm 3 — Replication
    # ------------------------------------------------------------------
    def replicate(self, value: Any, payload_bytes: int = 1000):
        """Generator process implementing the Replication routine.

        Returns the slot on success, None if not leader / deposed.
        """
        yield self.api.log_commit(
            paxos_record(event="replication-start", value="<batch>"),
            payload_bytes=payload_bytes,
        )
        if not self.l:
            return None
        if self.max_val is not None:
            value, self.max_val = self.max_val, None
        slot = self.next_slot
        self.next_slot += 1
        # Our own acceptance counts toward the majority.
        self.promised = max(self.promised, self.r)
        self.accepted[slot] = (self.r, value)
        collector = self._make_collector(
            ("accept", self.r, slot), self.majority - 1
        )
        propose = paxos_record(
            type="paxos-propose",
            ballot=self.r,
            slot=slot,
            value=value,
            sender=self.name,
        )
        for participant in self.others:
            yield self.api.send(
                propose, to=participant, payload_bytes=payload_bytes
            )
        responses = yield collector
        positive = [resp for resp in responses if record_field(resp, "ok")]
        if len(positive) + 1 >= self.majority:
            self.chosen[slot] = value
            yield self.api.log_commit(
                paxos_record(event="value-committed", slot=slot),
                payload_bytes=64,
            )
            return slot
        self.r = (self.r[0] + 1, self.name)
        self.l = False
        yield self.api.log_commit(
            paxos_record(event="step-down", ballot=self.r), payload_bytes=64
        )
        return None

    # ------------------------------------------------------------------
    # Acceptor handlers (the routines the paper omits "for brevity")
    # ------------------------------------------------------------------
    def _on_prepare(self, message: Record):
        ballot = record_field(message, "ballot")
        sender = record_field(message, "sender")
        ok = ballot >= self.promised
        if ok:
            self.promised = ballot
            yield self.api.log_commit(
                paxos_record(event="promise", ballot=ballot), payload_bytes=64
            )
        reply = paxos_record(
            type="paxos-promise",
            ballot=ballot,
            ok=ok,
            accepted=tuple(sorted(self.accepted.items())) if ok else (),
            sender=self.name,
        )
        yield self.api.send(reply, to=sender, payload_bytes=64)

    def _on_propose(self, message: Record):
        ballot = record_field(message, "ballot")
        sender = record_field(message, "sender")
        slot = record_field(message, "slot")
        ok = ballot >= self.promised
        if ok:
            self.promised = ballot
            self.accepted[slot] = (ballot, record_field(message, "value"))
            yield self.api.log_commit(
                paxos_record(event="accept", ballot=ballot, slot=slot),
                payload_bytes=64,
            )
        reply = paxos_record(
            type="paxos-accept",
            ballot=ballot,
            slot=slot,
            ok=ok,
            sender=self.name,
        )
        yield self.api.send(reply, to=sender, payload_bytes=64)

    # ------------------------------------------------------------------
    # Response collection
    # ------------------------------------------------------------------
    def _make_collector(self, key: Tuple, needed: int) -> Future:
        future = Future(self.api.sim, label=f"collect:{key}")
        if needed == 0:
            future.resolve([])
        else:
            self._collectors[key] = {
                "future": future,
                "needed": needed,
                "responses": [],
            }
        return future

    def _feed_collector(self, message: Record) -> None:
        ballot = record_field(message, "ballot")
        if record_field(message, "type") == "paxos-promise":
            key: Tuple = ("promise", ballot)
        else:
            key = ("accept", ballot, record_field(message, "slot"))
        # A resolved collector is gone: late answers find none.
        collector = self._collectors.get(key)
        if collector is None:
            return
        responses = collector["responses"]
        responses.append(message)
        # The paper waits for "a majority of positive votes"; with a
        # fixed quorum we resolve as soon as enough positives arrive, or
        # when everyone answered (all-negative case).
        positives = sum(1 for r in responses if record_field(r, "ok"))
        if (
            positives >= collector["needed"]
            or len(responses) >= len(self.others)
        ):
            del self._collectors[key]
            collector["future"].resolve(responses)
