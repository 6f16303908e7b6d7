"""Paxos itself, sans IO: one participant's state and transitions.

:class:`PaxosCore` is proposer, acceptor and learner in one plain object
with no simulator, future or network; each transition returns what its
host must do. The hosts are :mod:`repro.paxos.node` (flat, over
``Node.send``) and :mod:`repro.apps.bp_paxos` (``log_commit`` and
``api.send``; its verification routine is a :class:`PaxosAcceptor`
replayed from the Local Log). Ballots are ``(round, name)`` tuples.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ProtocolError
from repro.pbft.quorums import majority

#: A ballot number: (round, proposer name).
Ballot = Tuple[int, str]


class PaxosAcceptor:
    """Acceptor state and the acceptor rule."""

    def __init__(self) -> None:
        self.promised: Ballot = (0, "")
        self.accepted: Dict[int, Tuple[Ballot, Any]] = {}

    def admits(self, ballot: Ballot) -> bool:
        """The acceptor rule: no ballot below the one promised."""
        return ballot >= self.promised

    def promise(self, ballot: Ballot) -> Optional[dict]:
        """Phase 1b: a copy of what was accepted, or None when the rule
        refuses ``ballot``."""
        if not self.admits(ballot):
            return None
        self.promised = ballot
        return dict(self.accepted)

    def accept(self, ballot: Ballot, slot: int, value: Any) -> bool:
        """Phase 2b: accept ``value`` for ``slot`` unless refused."""
        if not self.admits(ballot):
            return False
        self.promised = ballot
        self.accepted[slot] = (ballot, value)
        return True


class PaxosCore(PaxosAcceptor):
    """One Paxos participant: acceptor, proposer and learner.

    A tally is keyed ``(ballot, None)`` for an election and ``(ballot,
    slot)`` for one slot. :meth:`start_election`, :meth:`propose` and
    :meth:`vote` return its outcome: True once a majority granted, False
    once a majority cannot, our own acceptor refused, or a refusal moved
    our ballot past it, else None. A decided tally is closed; later
    answers return None.
    """

    def __init__(self, name: str, participants: Sequence[str]) -> None:
        if name not in participants:
            raise ProtocolError(f"{name} missing from its own peer list")
        super().__init__()
        self.name = name
        self.n = len(participants)
        self.majority = majority(self.n)
        self.ballot: Ballot = (0, name)
        self.leader = False
        self.next_slot = 1
        #: The last won election's adopted ``(slot, value)`` pairs, which
        #: the new leader must re-propose, each at its own slot.
        self.adopted: List[Tuple[int, Any]] = []
        #: Learner state: the leader learns what its tallies chose.
        self.chosen: Dict[int, Any] = {}
        # (ballot, slot) -> (value, {grantor: accepted pairs}, {refuser})
        self._tallies: Dict[Tuple[Ballot, Optional[int]], tuple] = {}

    def start_election(self) -> Optional[bool]:
        """Phase 1a: take the next ballot and promise it ourselves."""
        self.ballot = ballot = (self.ballot[0] + 1, self.name)
        self._tallies[(ballot, None)] = (None, {}, set())
        accepted = self.promise(ballot)
        if accepted is None:
            return self.vote(self.name, ballot, None, promised=self.promised)
        return self.vote(self.name, ballot, None, accepted=accepted.items())

    def claim_slot(self) -> int:
        """Take the next free slot."""
        self.next_slot += 1
        return self.next_slot - 1

    def propose(self, slot: int, value: Any) -> Optional[bool]:
        """Phase 2a: propose ``value`` for ``slot`` and accept it ourselves."""
        ballot = self.ballot
        self._tallies[(ballot, slot)] = (value, {}, set())
        if self.accept(ballot, slot, value):
            return self.vote(self.name, ballot, slot)
        return self.vote(self.name, ballot, slot, promised=self.promised)

    def vote(
        self,
        acceptor: str,
        ballot: Ballot,
        slot: Optional[int],
        promised: Optional[Ballot] = None,
        accepted: Iterable = (),
    ) -> Optional[bool]:
        """Count ``acceptor``'s answer to our ``ballot`` for an election
        (``slot`` None; ``accepted`` its ``(slot, (ballot, value))``
        pairs) or for ``slot``. ``promised`` is None for a grant, else the
        ballot a refusal named: one above ours deposes us, and our next
        election's round beats it."""
        if promised is not None and promised > self.ballot:
            self.leader = False
            self.ballot = (promised[0], self.name)
        tally = self._tallies.get((ballot, slot))
        if tally is None:
            return None
        value, granted, refused = tally
        if promised is None:
            granted[acceptor] = accepted
        else:
            refused.add(acceptor)
        # Our own acceptor's refusal is as decisive as a lost majority.
        lost = self.name in refused or len(refused) > self.n - self.majority
        if ballot != self.ballot or lost:
            outcome = False
        elif len(granted) >= self.majority:
            outcome = True
        else:
            return None
        del self._tallies[(ballot, slot)]
        if outcome and slot is not None:
            self.chosen[slot] = value
        elif outcome:
            # Elected: per slot, adopt the highest-ballot accepted value.
            self.leader = True
            best: Dict[int, Tuple[Ballot, Any]] = {}
            for pairs in granted.values():
                for s, (b, v) in pairs:
                    if s not in best or b > best[s][0]:
                        best[s] = (b, v)
            self.adopted = [
                (s, best[s][1]) for s in sorted(best) if s not in self.chosen
            ]
            self.next_slot = max([self.next_slot, *(s + 1 for s in best)])
        return outcome
