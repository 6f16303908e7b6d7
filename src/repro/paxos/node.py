"""Multi-decree Paxos over simulated messages: the flat host of
:class:`~repro.paxos.core.PaxosCore`.

The Figure 7 baseline measures the latency of the *Replication phase*
with a stable leader: one ``Accept`` broadcast and a majority of
``Accepted`` responses — i.e. one round trip to the closest majority.
:meth:`MultiPaxosNode.replicate` exposes exactly that operation;
:meth:`MultiPaxosNode.elect_leader` runs Phase 1 (the paper's Leader
Election routine). The leader is the learner, as in Algorithm 3.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ProtocolError
from repro.paxos.core import Ballot, PaxosCore
from repro.paxos.messages import Accept, Accepted, Nack, PaxosPrepare, Promise
from repro.sim.node import Node
from repro.sim.process import Future


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
        self.core = PaxosCore(node_id, peers)
        super().__init__(sim, network, node_id, site)
        self.peers = list(peers)
        self.majority = self.core.majority
        self.chosen = self.core.chosen
        self._futures: Dict[tuple, Future] = {}  # by tally key

    @property
    def is_leader(self) -> bool:
        """Whether this node won its last election and was not deposed."""
        return self.core.leader

    def elect_leader(self) -> Future:
        """Run Phase 1 with a fresh ballot.

        Returns:
            A future resolving with the winning ballot, once the values
            the promises revealed are re-proposed at their slots.
        """
        outcome = self.core.start_election()
        ballot = self.core.ballot
        future = self._futures[(ballot, None)] = Future(self.sim, "paxos-elect")
        if outcome is not False:  # refused by our own acceptor: stay silent
            self.broadcast(self.peers, PaxosPrepare(ballot=ballot))
        self._settle(ballot, None, outcome)
        return future

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
        slot = self.core.claim_slot()
        future = Future(self.sim, f"paxos-replicate-{slot}")
        self._futures[(self.core.ballot, slot)] = future
        self._propose(slot, value, payload_bytes)
        return future

    def _propose(self, slot: int, value: Any, payload_bytes: int = 0) -> None:
        ballot = self.core.ballot
        outcome = self.core.propose(slot, value)
        if outcome is not False:
            accept = Accept(
                payload_bytes=payload_bytes, ballot=ballot, slot=slot, value=value
            )
            self.broadcast(self.peers, accept)
        self._settle(ballot, slot, outcome)

    # Acceptor: answer, naming the higher ballot when refusing.
    def handle_paxos_prepare(self, msg: PaxosPrepare, src: str) -> None:
        accepted = self.core.promise(msg.ballot)
        if accepted is None:
            reply = Nack(ballot=msg.ballot, promised=self.core.promised)
        else:
            reply = Promise(ballot=msg.ballot, accepted=accepted, acceptor=self.node_id)
        self.send(src, reply)

    def handle_accept(self, msg: Accept, src: str) -> None:
        ballot, slot = msg.ballot, msg.slot
        if self.core.accept(ballot, slot, msg.value):
            reply = Accepted(ballot=ballot, slot=slot, acceptor=self.node_id)
        else:
            reply = Nack(ballot=ballot, promised=self.core.promised, slot=slot)
        self.send(src, reply)

    # Proposer: count the answers.
    def handle_promise(self, msg: Promise, src: str) -> None:
        outcome = self.core.vote(
            msg.acceptor, msg.ballot, None, accepted=msg.accepted.items()
        )
        self._settle(msg.ballot, None, outcome)

    def handle_accepted(self, msg: Accepted, src: str) -> None:
        outcome = self.core.vote(msg.acceptor, msg.ballot, msg.slot)
        self._settle(msg.ballot, msg.slot, outcome)

    def handle_nack(self, msg: Nack, src: str) -> None:
        outcome = self.core.vote(src, msg.ballot, msg.slot, promised=msg.promised)
        self._settle(msg.ballot, msg.slot, outcome)

    def _settle(self, ballot: Ballot, slot: Optional[int], outcome) -> None:
        """A won election re-proposes what it adopted; the caller's
        future, if any, learns a decided outcome."""
        if outcome is None:
            return
        if outcome and slot is None:
            for adopted_slot, value in self.core.adopted:
                self._propose(adopted_slot, value)
        future = self._futures.pop((ballot, slot), None)
        if future is None:
            return
        if outcome:
            future.resolve(ballot if slot is None else slot)
        else:
            future.reject(ProtocolError(f"{self.node_id} lost {ballot}, slot {slot}"))
