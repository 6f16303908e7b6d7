"""The PBFT replica: a simulated machine hosting one PBFT engine.

The protocol lives in :class:`repro.pbft.engine.PBFTEngine`, which
knows no simulator and no telemetry hub. :class:`PBFTReplica` is the
thin host around it: it hands the engine this :class:`Node`'s
``send`` / ``broadcast`` / ``set_timer``, the simulator as clock and
future factory and the flight recorder's ``emit``; installs the engine's
bound ``handle_<kind>`` methods straight into the node's dispatch table;
answers the engine's app questions (:class:`PBFTApp`) for a plain PBFT
group; and is the only place metrics and spans attach to consensus.
Middleware (:class:`repro.core.node.BlockplaneNode`) subclasses the host
and overrides the app hooks — it never shares a namespace with the
protocol.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.hub import DISABLED
from repro.pbft.config import PBFTConfig
from repro.pbft.engine import PBFTApp, PBFTEngine, _Slot
from repro.pbft.messages import CommittedEntry
from repro.sim.node import Node
from repro.sim.process import Future

HANDLER_PREFIX = "handle_"


def _engine_state(name: str) -> property:
    """A read-only view of one engine attribute on the host."""
    return property(
        lambda self: getattr(self.engine, name),
        doc=f"The engine's ``{name}`` (read-only).",
    )


class PBFTReplica(Node, PBFTApp):
    """One member of a PBFT group, as a simulated machine.

    Args:
        sim: Owning simulator.
        network: Transport.
        node_id: This replica's id; must appear in ``peers``.
        site: Datacenter name.
        peers: Ordered ids of *all* group members (including this one).
            The leader of view ``v`` is ``peers[v % len(peers)]``.
        config: Timing/log parameters.
        obs: Observability hub (telemetry is off when omitted).

    Attributes:
        engine: The protocol state machine. Subscribe to executed
            entries with ``engine.on_executed.append(callback)``.
    """

    #: The engine this host builds; byzantine hosts swap in a variant.
    engine_class = PBFTEngine

    def __init__(
        self,
        sim,
        network,
        node_id: str,
        site: str,
        peers: List[str],
        config: Optional[PBFTConfig] = None,
        obs=None,
    ) -> None:
        super().__init__(sim, network, node_id, site)
        #: Observability hub (shared no-op instance when disabled).
        self.obs = obs if obs is not None else DISABLED
        self.peers = list(peers)
        self.engine: PBFTEngine = self.engine_class(
            node_id,
            site,
            peers,
            config or PBFTConfig(),
            app=self,
            send=self.send,
            broadcast=self.broadcast,
            set_timer=self.set_timer,
            clock=sim,
            make_future=functools.partial(Future, sim),
            # The flight recorder's bound emit path (None when forensics
            # is off): one Python frame per journaled fact.
            emit=self.obs.event if self.obs.forensics else None,
            probe=self if self.obs.enabled else None,
        )
        # Deliveries go straight to the engine: no forwarding frame per
        # message. Kinds the engine does not consume (a subclass's own
        # ``handle_<kind>``) still resolve lazily in ``Node.on_message``.
        for name in dir(self.engine):
            if name.startswith(HANDLER_PREFIX):
                self._dispatch[name[len(HANDLER_PREFIX):]] = getattr(
                    self.engine, name
                )
        # request_id → the open "pbft.consensus" span at the origin.
        self._spans: Dict[Tuple[str, int], Any] = {}
        # Virtual time this replica entered its current view change
        # (None outside one); bounds the "pbft.view_change" span the
        # critical-path attributor charges failover stalls to.
        self._view_change_started: Optional[float] = None
        #: seq → trace context of a just-executed traced slot; consumed
        #: by subclasses that attach further spans (Blockplane's Local
        #: Log apply pops entries as it handles them).
        self._slot_traces: Dict[int, Tuple[int, int]] = {}
        # Metric handles for the per-slot phase metrics, resolved once
        # instead of per executed slot.
        self._phase_histograms: Optional[Tuple[Any, Any]] = None
        self._commit_counters: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # The engine's state, read-only (writes go through the protocol)
    # ------------------------------------------------------------------
    config = _engine_state("config")
    view = _engine_state("view")
    is_leader = _engine_state("is_leader")
    last_executed = _engine_state("last_executed")
    executed_entries = _engine_state("executed_entries")
    slots = _engine_state("slots")
    stable_checkpoint = _engine_state("stable_checkpoint")
    stable_certificate = _engine_state("stable_certificate")
    snapshot_installs = _engine_state("snapshot_installs")
    stable_snapshot_payload = _engine_state("_stable_snapshot_payload")

    def submit(
        self,
        value: Any,
        record_type: str = "log-commit",
        meta: Optional[Dict[str, Any]] = None,
        payload_bytes: int = 0,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> Future:
        """Submit a value for total-order commitment; see
        :meth:`PBFTEngine.submit`, which also hands back the request id.
        Returns the future alone. With tracing on and a ``trace_ctx``,
        the consensus round and its phases are recorded as child spans
        of that context."""
        return self.engine.submit(
            value, record_type, meta, payload_bytes, trace_ctx
        )[1]

    def on_recover(self) -> None:
        """After a benign crash, re-fetch the suffix of the log."""
        self.engine.on_recover()

    # ------------------------------------------------------------------
    # App hooks a plain PBFT group answers differently from PBFTApp
    # ------------------------------------------------------------------
    def on_view_installed(self, new_view: int) -> None:
        """Close out the failover window on every traced pending
        request, so the critical-path attributor charges the stall to
        a named ``pbft.view_change`` segment instead of folding it
        into consensus self-time. Only the origin replica holds
        pending requests, so each trace gets the span once."""
        started = self._view_change_started
        self._view_change_started = None
        if started is None or not self.obs.tracing:
            return
        for span in self._spans.values():
            self.obs.complete_span(
                "pbft.view_change", started, self.sim.now,
                self.obs.ctx_of(span),
                participant=self.site, node=self.node_id,
                new_view=new_view,
            )

    # ------------------------------------------------------------------
    # The engine's probe (attached only when observability is enabled)
    # ------------------------------------------------------------------
    def request_opened(
        self,
        request_id: Tuple[str, int],
        record_type: str,
        trace_ctx: Optional[Tuple[int, int]],
    ) -> None:
        if trace_ctx is not None and self.obs.tracing:
            self._spans[request_id] = self.obs.begin_span(
                "pbft.consensus", trace_ctx,
                participant=self.site, node=self.node_id,
                record_type=record_type,
            )

    def request_closed(self, request_id: Tuple[str, int], **outcome: Any) -> None:
        span = self._spans.pop(request_id, None)
        if span is not None:
            self.obs.end_span(span, **outcome)

    def verify_rejected(self) -> None:
        self.obs.counter(
            "pbft_verify_rejects_total", participant=self.site
        ).inc()

    def view_change_started(self) -> None:
        if self._view_change_started is None:
            self._view_change_started = self.sim.now
        self.obs.counter(
            "pbft_view_changes_total", participant=self.site
        ).inc()

    def slot_executed(self, entry: CommittedEntry, slot: _Slot) -> None:
        """Phase metrics and spans for a just-executed slot.

        Recorded only at the request's *origin* replica so each commit
        contributes exactly one sample per phase (every replica sees
        the same virtual-time quorum points; sampling all of them would
        just quadruple identical data).
        """
        if slot.request_id[0] != self.node_id or slot.t_pre_prepare < 0:
            return
        now = self.sim.now
        site = self.site
        obs = self.obs
        prepared = slot.t_prepared if slot.t_prepared >= 0 else now
        histograms = self._phase_histograms
        if histograms is None:
            histograms = self._phase_histograms = (
                obs.histogram(
                    "pbft_preprepare_to_prepared_ms", participant=site
                ),
                obs.histogram(
                    "pbft_prepared_to_committed_ms", participant=site
                ),
            )
        histograms[0].observe(prepared - slot.t_pre_prepare, at=now)
        histograms[1].observe(now - prepared, at=now)
        counter = self._commit_counters.get(entry.record_type)
        if counter is None:
            counter = self._commit_counters[entry.record_type] = obs.counter(
                "pbft_commits_total", participant=site,
                record_type=entry.record_type,
            )
        counter.value += 1.0
        if not obs.tracing or slot.trace is None:
            return
        self._slot_traces[entry.seq] = slot.trace
        parent = self._spans.get(slot.request_id)
        ctx = (
            obs.ctx_of(parent) if parent is not None else slot.trace
        )
        common = dict(participant=site, node=self.node_id, seq=entry.seq)
        obs.complete_span(
            "pbft.pre_prepare", slot.t_pre_prepare, slot.t_pre_prepare,
            ctx, **common,
        )
        obs.complete_span(
            "pbft.prepare", slot.t_pre_prepare, prepared, ctx, **common
        )
        obs.complete_span(
            "pbft.verify", prepared, prepared, ctx,
            record_type=entry.record_type, **common,
        )
        obs.complete_span("pbft.commit", prepared, now, ctx, **common)
