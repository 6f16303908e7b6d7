"""Geo-correlated fault tolerance (Section V of the paper).

Independent byzantine failures are masked *inside* a datacenter; a
whole-datacenter outage (earthquake, grid failure — the paper cites the
frequency of such events) is a different, benign failure mode handled by
primary-copy replication *across* participants:

* every participant has a **replication set** of ``2·fg + 1``
  participants (itself plus ``2·fg`` peers) that mirror its Local Log,
* a commit only completes after ``fg`` of them return a **proof**
  (``fi + 1`` unit signatures) that they mirrored the entry, and
* when the primary participant fails, the next participant in the set
  takes over (heartbeat suspicion), which is safe because every
  committed entry lives on ``fg + 1`` participants — any two primaries'
  quorums intersect.

The :class:`GeoCoordinator` runs on a unit's gateway node and drives
the proof gathering, heartbeats, and takeover. The *passive* mirror
side (accepting and attesting mirrored entries) lives on every
Blockplane node (:mod:`repro.core.node`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.messages import Heartbeat, MirrorRequest, MirrorResponse, TakeOver
from repro.core.records import (
    LogEntry,
    MirrorEntry,
    RECORD_COMMUNICATION,
    RECORD_LOG_COMMIT,
)
from repro.sim.process import Future, any_of

if TYPE_CHECKING:
    from repro.core.node import BlockplaneNode

#: Extra slack (beyond the RTT estimate) a primary waits for a mirror
#: proof before failing over to the next-closest secondary.
GEO_REQUEST_TIMEOUT_MS = 60.0
#: Geo primary -> secondary heartbeat period.
HEARTBEAT_INTERVAL_MS = 50.0
#: Silence after which a secondary suspects the primary and takes over
#: (Figure 8(b)'s ~250 ms spikes come from this detection window).
HEARTBEAT_SUSPECT_MS = 200.0


class GeoCoordinator:
    """Drives a participant's geo replication from its gateway node.

    Args:
        node: The gateway Blockplane node.
        replication_set: Ordered participant names; ``2·fg + 1`` of
            them, position 0 is the initial primary and later positions
            are the takeover order. Must contain this node's
            participant.
    """

    def __init__(
        self,
        node: "BlockplaneNode",
        replication_set: List[str],
        passive: bool = False,
    ) -> None:
        """``passive=True`` builds a proof-gathering-only coordinator
        (no heartbeats, no takeover, no eager gathering) — used by
        reserve daemons on non-gateway nodes, which must be able to
        attach geo proofs to the transmissions they re-ship."""
        if node.participant not in replication_set:
            raise ValueError(
                f"{node.participant} missing from its replication set"
            )
        self.node = node
        self.replication_set = list(replication_set)
        self.passive = passive
        self.current_primary = replication_set[0]
        self.epoch = 0
        self._heartbeat_seq = 0
        self._last_heard = node.sim.now
        self._proof_futures: Dict[int, Future] = {}
        self._gathering: set = set()
        #: participant → virtual time until which it is suspected dead
        #: (mirror requests to it timed out); suspected peers are tried
        #: last so one failed backup does not tax every later commit.
        self._suspected: Dict[str, float] = {}
        #: Fired with (new_primary, epoch) whenever leadership moves.
        self.on_primary_change: List[Callable[[str, int], None]] = []
        node.geo = self
        if not passive:
            node.on_log_append.append(self._on_append)
            if self.node.bp_config.f_geo > 0:
                self._schedule_heartbeat()
                self._schedule_monitor()

    # ------------------------------------------------------------------
    # Proof gathering (the primary side of Section V)
    # ------------------------------------------------------------------
    @property
    def is_primary(self) -> bool:
        """Whether this coordinator's participant currently leads."""
        return self.current_primary == self.node.participant

    def proofs_for(self, position: int) -> Future:
        """Future resolving with ``fg`` mirror proofs for a log entry
        (tuple of ``(participant, QuorumProof)``)."""
        future = self._proof_futures.get(position)
        if future is None:
            future = Future(self.node.sim, label=f"geo-proofs:{position}")
            self._proof_futures[position] = future
        return future

    def ensure_proofs(self, entry: LogEntry) -> Future:
        """Start gathering proofs for ``entry`` if not already underway
        (idempotent); returns the proofs future. This is what a
        reserve-promoted daemon calls — mirror commits deduplicate at
        the targets, so redundant gathering is safe."""
        future = self.proofs_for(entry.position)
        if not future.resolved and entry.position not in self._gathering:
            self._gathering.add(entry.position)
            self.node.sim.spawn(self._gather(entry, future))
        return future

    def _on_append(self, entry: LogEntry) -> None:
        if self.node.bp_config.f_geo <= 0:
            return
        if entry.record_type not in (RECORD_LOG_COMMIT, RECORD_COMMUNICATION):
            return
        self.ensure_proofs(entry)

    def _gather(self, entry: LogEntry, future: Future):
        """Collect fg mirror proofs, failing over to farther peers."""
        node = self.node
        obs = node.obs
        gather_started = node.sim.now
        fg = node.bp_config.f_geo
        mirror = MirrorEntry.of(node.participant, entry)
        digest = mirror.digest()
        local_proof = yield node.collect_local_signatures(
            entry.position, digest, purpose="mirror"
        )
        # Candidates: the other replication-set members, closest first
        # ("coordinate with fg + 1 participants out of a chosen set of
        # 2fg + 1" — itself plus the fg closest peers in the set). The
        # fg nearest are asked IN PARALLEL; farther peers are only
        # contacted to replace ones that time out.
        collected: List[Tuple[str, object]] = []
        succeeded = set()
        tried = set()
        pending: List = []
        attempt_round = 0
        while len(collected) < fg:
            while len(pending) + len(collected) < fg:
                target = self._next_candidate(tried)
                if target is None:
                    break
                tried.add(target)
                pending.append(
                    node.sim.spawn(
                        self._mirror_attempt(
                            target, mirror, local_proof, entry.payload_bytes
                        )
                    )
                )
            if not pending:
                # Every candidate tried this round; start over (peers
                # may have recovered) after a backoff.
                attempt_round += 1
                tried = set(succeeded)
                yield node.sim.sleep(GEO_REQUEST_TIMEOUT_MS * attempt_round)
                continue
            index, (target, proof) = yield any_of(node.sim, pending)
            pending.pop(index)
            if proof is not None and target not in succeeded:
                succeeded.add(target)
                collected.append((target, proof))
                self._suspected.pop(target, None)
            elif proof is None:
                self._suspected[target] = (
                    node.sim.now + node.bp_config.geo_suspicion_ttl_ms
                )
        if not future.resolved:
            future.resolve(tuple(collected))
        if obs.enabled:
            obs.histogram(
                "geo_proof_ms", participant=node.participant
            ).observe(node.sim.now - gather_started, at=node.sim.now)
            if obs.tracing:
                ctx = obs.entry_trace(node.participant, entry.position)
                if ctx is not None:
                    obs.complete_span(
                        "geo.proofs", gather_started, node.sim.now, ctx,
                        participant=node.participant, node=node.node_id,
                        position=entry.position,
                        mirrors=[p for p, _ in collected],
                    )

    def _next_candidate(self, tried: set) -> Optional[str]:
        """Best untried mirror: live-believed peers by RTT, then
        suspected ones by RTT (last resort)."""
        node = self.node
        now = node.sim.now
        candidates = [
            p
            for p in self.replication_set
            if p != node.participant and p not in tried
        ]
        if not candidates:
            return None
        candidates.sort(
            key=lambda p: (
                self._suspected.get(p, 0.0) > now,
                node.directory.rtt_ms(node.participant, p),
            )
        )
        return candidates[0]

    def _mirror_attempt(
        self, target: str, mirror: MirrorEntry, local_proof, payload_bytes: int
    ):
        """One mirror attempt against one participant; resolves with
        ``(target, proof)`` where proof is None on timeout/invalidity."""
        node = self.node
        waiter = node.register_mirror_waiter(target, mirror.position)
        request = MirrorRequest(
            payload_bytes=payload_bytes,
            entry=mirror,
            proof=local_proof,
            reply_to=node.node_id,
        )
        members = node.directory.unit_members(target)
        fanout = min(node.bp_config.transmission_fanout, len(members))
        for member in members[:fanout]:
            node.send(member, request)
        timeout = (
            node.directory.rtt_ms(node.participant, target)
            + GEO_REQUEST_TIMEOUT_MS
        )
        which, outcome = yield any_of(
            node.sim, [waiter, node.sim.sleep(timeout)]
        )
        if which != 0:
            if node.obs.enabled:
                node.obs.counter(
                    "geo_mirror_timeouts_total",
                    participant=node.participant, target=target,
                ).inc()
                if node.obs.forensics:
                    node.obs.event(
                        "geo.mirror_timeout", participant=node.participant,
                        node=node.node_id, target=target,
                        position=mirror.position,
                    )
            return (target, None)
        response: MirrorResponse = outcome
        proof = response.proof
        if not node.proof_valid(proof, mirror.digest(), target):
            return (target, None)
        return (target, proof)

    # ------------------------------------------------------------------
    # Heartbeats and takeover (primary-copy recovery, Section V / VI-B)
    # ------------------------------------------------------------------
    def _schedule_heartbeat(self) -> None:
        self.node.set_timer(HEARTBEAT_INTERVAL_MS, self._heartbeat_tick)

    def _heartbeat_tick(self) -> None:
        if self.is_primary:
            self._heartbeat_seq += 1
            beat = Heartbeat(
                primary=self.node.participant, sequence=self._heartbeat_seq
            )
            for participant in self.replication_set:
                if participant == self.node.participant:
                    continue
                self.node.send(
                    self.node.directory.gateway(participant), beat
                )
        self._schedule_heartbeat()

    def _schedule_monitor(self) -> None:
        self.node.set_timer(HEARTBEAT_INTERVAL_MS, self._monitor_tick)

    def _monitor_tick(self) -> None:
        if not self.is_primary:
            silence = self.node.sim.now - self._last_heard
            # Staggered suspicion: earlier-ranked secondaries fire first
            # so at most one takeover happens per failure.
            rank = self._takeover_rank()
            threshold = HEARTBEAT_SUSPECT_MS * (1.0 + 0.5 * max(rank - 1, 0))
            if rank >= 1 and silence > threshold:
                self._take_over()
        self._schedule_monitor()

    def _takeover_rank(self) -> int:
        """1 = next in line after the current primary, 0 = not in line."""
        order = [
            p for p in self.replication_set if p != self.current_primary
        ]
        if self.node.participant not in order:
            return 0
        return order.index(self.node.participant) + 1

    def _take_over(self) -> None:
        self.epoch += 1
        self.current_primary = self.node.participant
        if self.node.obs.enabled:
            self.node.obs.counter(
                "geo_takeovers_total", participant=self.node.participant
            ).inc()
            if self.node.obs.forensics:
                self.node.obs.event(
                    "geo.take_over", participant=self.node.participant,
                    node=self.node.node_id, epoch=self.epoch,
                )
        self._last_heard = self.node.sim.now
        announcement = TakeOver(
            new_primary=self.node.participant, epoch=self.epoch
        )
        for participant in self.replication_set:
            if participant == self.node.participant:
                continue
            self.node.send(self.node.directory.gateway(participant), announcement)
        for callback in list(self.on_primary_change):
            callback(self.current_primary, self.epoch)

    def on_heartbeat(self, msg: Heartbeat, src: str) -> None:
        """Wired from the node's heartbeat handler."""
        if msg.primary == self.current_primary:
            self._last_heard = self.node.sim.now

    def on_take_over(self, msg: TakeOver, src: str) -> None:
        """Wired from the node's takeover handler."""
        if msg.epoch <= self.epoch and msg.new_primary == self.current_primary:
            return
        if msg.epoch >= self.epoch:
            self.epoch = msg.epoch
            self.current_primary = msg.new_primary
            self._last_heard = self.node.sim.now
            for callback in list(self.on_primary_change):
                callback(self.current_primary, self.epoch)
