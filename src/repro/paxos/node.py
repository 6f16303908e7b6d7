"""Multi-decree Paxos node (proposer + acceptor + learner in one).

The Figure 7 baseline measures the latency of the *Replication phase*
with a stable leader: one ``Accept`` broadcast and a majority of
``Accepted`` responses — i.e. one round trip to the closest majority.
:meth:`MultiPaxosNode.replicate` exposes exactly that operation;
:meth:`MultiPaxosNode.elect_leader` runs Phase 1 (the paper's Leader
Election routine).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.paxos.messages import (
    Accept,
    Accepted,
    Ballot,
    Learn,
    Nack,
    PaxosPrepare,
    Promise,
)
from repro.pbft.quorums import majority
from repro.sim.node import Node
from repro.sim.process import Future


@dataclasses.dataclass
class _Election:
    """In-flight Phase 1 state."""

    ballot: Ballot
    future: Future
    promises: Dict[str, Promise] = dataclasses.field(default_factory=dict)
    done: bool = False


@dataclasses.dataclass
class _Replication:
    """In-flight Phase 2 state for one slot."""

    ballot: Ballot
    value: Any
    future: Future
    acceptors: set = dataclasses.field(default_factory=set)
    done: bool = False


class MultiPaxosNode(Node):
    """A Paxos participant; one per datacenter in the flat baseline.

    Args:
        sim: Owning simulator.
        network: Transport.
        node_id: This node's id; must appear in ``peers``.
        site: Datacenter name.
        peers: All participant ids (including this one).
    """

    def __init__(self, sim, network, node_id: str, site: str, peers: List[str]):
        super().__init__(sim, network, node_id, site)
        if node_id not in peers:
            raise ProtocolError(f"{node_id} missing from its own peer list")
        self.peers = list(peers)
        # Acceptor state.
        self.promised: Ballot = (0, "")
        self.accepted: Dict[int, Tuple[Ballot, Any]] = {}
        # Proposer state.
        self.is_leader = False
        self.ballot: Ballot = (0, self.node_id)
        self.next_slot = 1
        # Learner state.
        self.chosen: Dict[int, Any] = {}
        self._election: Optional[_Election] = None
        self._replications: Dict[int, _Replication] = {}

    @property
    def majority(self) -> int:
        """Quorum size: more than half of the participants."""
        return majority(len(self.peers))

    # ------------------------------------------------------------------
    # Phase 1 — Leader Election
    # ------------------------------------------------------------------
    def elect_leader(self) -> Future:
        """Run Phase 1 with a fresh ballot.

        Returns:
            A future resolving with this node's winning ballot. Any
            previously accepted values revealed by promises are adopted
            into the proposer's slot map (``max-val`` handling from the
            paper's Algorithm 3).
        """
        round_number = self.ballot[0] + 1
        self.ballot = (round_number, self.node_id)
        election = _Election(ballot=self.ballot, future=Future(self.sim, "paxos-elect"))
        self._election = election
        prepare = PaxosPrepare(ballot=self.ballot, first_unchosen=self.next_slot)
        self.broadcast(self.peers, prepare)
        self.handle_paxos_prepare(prepare, self.node_id)
        return election.future

    def handle_paxos_prepare(self, msg: PaxosPrepare, src: str) -> None:
        """Acceptor: promise the highest ballot seen."""
        if msg.ballot < self.promised:
            self.send(src, Nack(ballot=msg.ballot, promised=self.promised))
            return
        self.promised = msg.ballot
        accepted_above = {
            slot: entry
            for slot, entry in self.accepted.items()
            if slot >= msg.first_unchosen
        }
        promise = Promise(
            ballot=msg.ballot, accepted=accepted_above, acceptor=self.node_id
        )
        if src == self.node_id:
            self.handle_promise(promise, self.node_id)
        else:
            self.send(src, promise)

    def handle_promise(self, msg: Promise, src: str) -> None:
        """Proposer: count promises; become leader on a majority."""
        election = self._election
        if election is None or election.done or msg.ballot != election.ballot:
            return
        election.promises[msg.acceptor] = msg
        if len(election.promises) < self.majority:
            return
        election.done = True
        self.is_leader = True
        # Adopt the highest-ballot accepted value per slot (Paxos's
        # value-selection rule); re-propose them so they get chosen.
        adopt: Dict[int, Tuple[Ballot, Any]] = {}
        for promise in election.promises.values():
            for slot, (ballot, value) in promise.accepted.items():
                if slot not in adopt or ballot > adopt[slot][0]:
                    adopt[slot] = (ballot, value)
        for slot in sorted(adopt):
            if slot not in self.chosen:
                self._propose(slot, adopt[slot][1], Future(self.sim, "readopt"))
            self.next_slot = max(self.next_slot, slot + 1)
        election.future.resolve(self.ballot)

    # ------------------------------------------------------------------
    # Phase 2 — Replication
    # ------------------------------------------------------------------
    def replicate(self, value: Any, payload_bytes: int = 0) -> Future:
        """Choose ``value`` in the next slot (leader only).

        Returns:
            A future resolving with the slot number once a majority of
            acceptors accepted, i.e. after one round trip to the
            closest majority.

        Raises:
            ProtocolError: If this node is not the current leader.
        """
        if not self.is_leader:
            raise ProtocolError(f"{self.node_id} is not the Paxos leader")
        slot = self.next_slot
        self.next_slot += 1
        future = Future(self.sim, f"paxos-replicate-{slot}")
        self._propose(slot, value, future, payload_bytes)
        return future

    def _propose(
        self, slot: int, value: Any, future: Future, payload_bytes: int = 0
    ) -> None:
        replication = _Replication(ballot=self.ballot, value=value, future=future)
        self._replications[slot] = replication
        accept = Accept(
            payload_bytes=payload_bytes, ballot=self.ballot, slot=slot, value=value
        )
        self.broadcast(self.peers, accept)
        self.handle_accept(accept, self.node_id)

    def handle_accept(self, msg: Accept, src: str) -> None:
        """Acceptor: accept unless promised to a higher ballot."""
        if msg.ballot < self.promised:
            self.send(
                src, Nack(ballot=msg.ballot, promised=self.promised, slot=msg.slot)
            )
            return
        self.promised = msg.ballot
        self.accepted[msg.slot] = (msg.ballot, msg.value)
        accepted = Accepted(ballot=msg.ballot, slot=msg.slot, acceptor=self.node_id)
        if src == self.node_id:
            self.handle_accepted(accepted, self.node_id)
        else:
            self.send(src, accepted)

    def handle_accepted(self, msg: Accepted, src: str) -> None:
        """Proposer: value is chosen on a majority of accepts."""
        replication = self._replications.get(msg.slot)
        if replication is None or replication.done:
            return
        if msg.ballot != replication.ballot:
            return
        replication.acceptors.add(msg.acceptor)
        if len(replication.acceptors) < self.majority:
            return
        replication.done = True
        self.chosen[msg.slot] = replication.value
        self.broadcast(self.peers, Learn(slot=msg.slot, value=replication.value))
        if not replication.future.resolved:
            replication.future.resolve(msg.slot)

    def handle_nack(self, msg: Nack, src: str) -> None:
        """A higher ballot exists: step down; a caller may re-elect."""
        if msg.promised > self.ballot:
            self.is_leader = False
            self.ballot = (msg.promised[0], self.node_id)
            election = self._election
            if election is not None and not election.done:
                election.done = True
                election.future.reject(
                    ProtocolError(
                        f"{self.node_id} lost election to ballot {msg.promised}"
                    )
                )

    def handle_learn(self, msg: Learn, src: str) -> None:
        """Learner: record the chosen value."""
        self.chosen[msg.slot] = msg.value
