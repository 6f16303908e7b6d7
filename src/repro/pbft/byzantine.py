"""Byzantine replica variants for validation.

The paper's fault model (Section I) covers arbitrary node behaviour:
crashes, malfunction, and malice. These subclasses exhibit the concrete
misbehaviours the test suite uses to check Blockplane's guarantees:

* :class:`SilentReplica` — participates in nothing (fail-stop-like, but
  without the network knowing).
* :class:`EquivocatingLeader` — proposes *different* values to
  different replicas for the same sequence number when it leads.
* :class:`TamperingVoter` — votes prepare/commit with corrupted
  digests, trying to split or stall quorums.
* :class:`BogusProposer` — when leader, injects proposals that are not
  valid state transitions (what verification routines must catch).

None of these can break safety with at most ``f`` of them per unit —
the tests assert exactly that.

A misbehaviour in the *protocol* is an engine variant (its handlers are
the honest engine's text with the lie edited in) named by a host's
``engine_class``; one that needs no protocol state, like going silent,
stays on the host.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.pbft.messages import ClientRequest, Commit, PrePrepare, Prepare
from repro.pbft.engine import PBFTEngine, request_digest
from repro.pbft.replica import PBFTReplica


class SilentReplica(PBFTReplica):
    """Ignores every protocol message and never votes."""

    def on_message(self, message, src_id) -> None:  # noqa: D102
        return


class EquivocatingEngine(PBFTEngine):
    """When leading, sends conflicting proposals to different peers.

    Half the peers receive the real value, the other half receive a
    forged one under the same sequence number. PBFT's prepare quorum
    (2f+1 of 3f+1) makes it impossible for both values to prepare.
    """

    forged_value: Any = "FORGED"

    def handle_client_request(self, msg: ClientRequest, src: str) -> None:
        if not self.is_leader or self.in_view_change:
            return
        if msg.request_id in self._assigned_requests:
            return
        seq = self.next_seq
        self.next_seq += 1
        self._assigned_requests[msg.request_id] = seq

        def _proposal(value: Any) -> PrePrepare:
            return PrePrepare(
                payload_bytes=msg.payload_bytes,
                view=self.view,
                seq=seq,
                digest=request_digest(value, msg.record_type, msg.request_id),
                request_id=msg.request_id,
                value=value,
                record_type=msg.record_type,
                meta=msg.meta,
            )

        honest = _proposal(msg.value)
        forged = _proposal(self.forged_value)
        others = [peer for peer in self.peers if peer != self.node_id]
        for index, peer in enumerate(others):
            self.send(peer, honest if index % 2 == 0 else forged)
        self.handle_pre_prepare(honest, self.node_id)


class EquivocatingLeader(PBFTReplica):
    """Hosts an :class:`EquivocatingEngine`."""

    engine_class = EquivocatingEngine

    def __init__(self, *args: Any, forged_value: Any = "FORGED", **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.engine.forged_value = forged_value


class TamperingEngine(PBFTEngine):
    """Votes with corrupted digests in both vote phases."""

    def handle_pre_prepare(self, msg: PrePrepare, src: str) -> None:
        if msg.view != self.view or src != self.leader_of(msg.view):
            return
        bogus = Prepare(
            view=msg.view,
            seq=msg.seq,
            digest="0" * 64,
            replica=self.node_id,
        )
        self.broadcast(self.peers, bogus)

    def handle_prepare(self, msg: Prepare, src: str) -> None:
        bogus = Commit(
            view=msg.view,
            seq=msg.seq,
            digest="f" * 64,
            replica=self.node_id,
        )
        self.broadcast(self.peers, bogus)

    def handle_commit(self, msg: Commit, src: str) -> None:
        return


class TamperingVoter(PBFTReplica):
    """Hosts a :class:`TamperingEngine`."""

    engine_class = TamperingEngine


class BogusEngine(PBFTEngine):
    """When leader, replaces every proposal with an invalid transition.

    Used to show that verification routines (not just digests) protect
    the wrapped protocol: the forged value is well-formed PBFT-wise but
    is not a legal state transition, so honest replicas refuse to vote
    commit and the value never executes.
    """

    bogus_value: Any = ("illegal-transition",)
    bogus_meta: Optional[Dict[str, Any]] = None

    def handle_client_request(self, msg: ClientRequest, src: str) -> None:
        forged = ClientRequest(
            payload_bytes=msg.payload_bytes,
            request_id=msg.request_id,
            value=self.bogus_value,
            record_type=msg.record_type,
            meta=self.bogus_meta if self.bogus_meta is not None else msg.meta,
        )
        super().handle_client_request(forged, src)


class BogusProposer(PBFTReplica):
    """Hosts a :class:`BogusEngine`."""

    engine_class = BogusEngine

    def __init__(
        self,
        *args: Any,
        bogus_value: Any = ("illegal-transition",),
        bogus_meta: Optional[Dict[str, Any]] = None,
        **kwargs: Any,
    ):
        super().__init__(*args, **kwargs)
        self.engine.bogus_value = bogus_value
        self.engine.bogus_meta = bogus_meta
