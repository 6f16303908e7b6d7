"""Wide-area network model: latency matrix, NIC serialization, faults.

Delivery time of a message is computed from three components, matching
the factors the paper's evaluation attributes its numbers to:

* **Egress serialization** — each node owns one NIC; payload bytes are
  transmitted at ``bandwidth_mb_per_s`` (the paper measured 640 MB/s with
  iperf) and back-to-back sends queue behind each other. This is what
  makes large batches slow (Figure 4) and extra replicas slower
  (Table II).
* **Propagation** — one-way latency from the topology: RTT/2 across
  datacenters (Table I), a sub-millisecond constant within one.
* **Receiver processing** — a small per-message CPU cost plus ingress
  serialization, modelled as a second queue at the destination NIC.

The network also hosts the fault hooks (drops, partitions, tampering)
used by :mod:`repro.sim.faults` and by byzantine tests.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import UnknownNodeError
from repro.sim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.hub import Observability
    from repro.sim.node import Message, Node
    from repro.sim.simulator import Simulator

#: A filter decides the fate of a message: it receives
#: ``(src_id, dst_id, message)`` and returns True to drop the message.
DropFilter = Callable[[str, str, Any], bool]

#: A tamper hook receives ``(src_id, dst_id, message)`` and returns the
#: (possibly replaced) message to deliver.
TamperHook = Callable[[str, str, Any], Any]

#: Sort key for broadcast arrival batches (module-level so the hot
#: broadcast loop does not rebuild a closure per call).
_entry_arrival = operator.itemgetter(0)


@dataclasses.dataclass
class NetworkOptions:
    """Tunable parameters of the network model.

    Attributes:
        bandwidth_mb_per_s: NIC bandwidth in decimal MB/s; the paper
            measured 640 MB/s between same-datacenter machines.
        per_message_overhead_bytes: Framing bytes added to every message.
        receiver_processing_ms: CPU cost charged per received message
            (serialized at the receiver), the knob behind Table II's
            latency growth with the number of replicas.
        jitter_ms: Uniform random extra delay in [0, jitter_ms] applied
            per hop. Zero keeps runs exactly reproducible (it is the
            default); tests of timeout logic turn it on.
        wire_fidelity: Round-trip every cross-site delivery through the
            wire codec (encode→UTF-8 bytes→decode), so the receiver
            handles a freshly deserialized object, exactly as a
            production deployment would. Off by default: transcoding
            costs real CPU per message, and most runs measure the
            protocol, not the serializer. Virtual time is unaffected —
            the bandwidth model keeps charging the modelled
            ``size_bytes`` — only the Python-level serialization work
            becomes real.
    """

    bandwidth_mb_per_s: float = 640.0
    per_message_overhead_bytes: int = 128
    receiver_processing_ms: float = 0.01
    jitter_ms: float = 0.0
    wire_fidelity: bool = False

    def bytes_per_ms(self) -> float:
        """NIC throughput in bytes per virtual millisecond."""
        return self.bandwidth_mb_per_s * 1e3  # MB/s == bytes/ms * 1e-3


class Network:
    """Message transport between registered nodes.

    Args:
        sim: The owning simulator.
        topology: Site layout and latency matrix.
        options: Bandwidth/overhead parameters (defaults match the
            paper's testbed).
        obs: Observability hub; when enabled, per-link
            (``site->site``) message and byte counters are recorded.
    """

    def __init__(
        self,
        sim: "Simulator",
        topology: Topology,
        options: Optional[NetworkOptions] = None,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.options = options or NetworkOptions()
        if obs is None:
            from repro.obs.hub import DISABLED

            obs = DISABLED
        self.obs = obs
        self.nodes: Dict[str, "Node"] = {}
        self.drop_filters: List[DropFilter] = []
        self.tamper_hooks: List[TamperHook] = []
        self._egress_free_at: Dict[str, float] = {}
        self._ingress_free_at: Dict[str, float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.bytes_sent = 0
        self._link_counters: Dict[tuple, tuple] = {}
        self.wire_transcodes = 0
        self.wire_bytes = 0
        if self.options.wire_fidelity:
            from repro.core.codec import transcode

            self._transcode = transcode
        else:
            self._transcode = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        """Attach a node so it can send and receive messages."""
        if node.node_id in self.nodes:
            raise UnknownNodeError(f"node id {node.node_id!r} registered twice")
        self.nodes[node.node_id] = node

    def node(self, node_id: str) -> "Node":
        """Look up a registered node by id."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node_id!r}") from None

    def nodes_at_site(self, site_name: str) -> List["Node"]:
        """All registered nodes located in one datacenter."""
        return [n for n in self.nodes.values() if n.site == site_name]

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def send(self, src_id: str, dst_id: str, message: "Message") -> None:
        """Transmit ``message`` from ``src_id`` to ``dst_id``.

        A unicast is a one-destination :meth:`broadcast`. The call
        returns immediately; delivery happens at a future virtual time
        (or never, if a fault hook drops the message or the destination
        is crashed at delivery time).
        """
        self.broadcast(src_id, (dst_id,), message)

    def broadcast(
        self, src_id: str, dst_ids: Sequence[str], message: "Message"
    ) -> None:
        """Fan ``message`` out to one or more destinations.

        The only transport path: drop filters, tamper hooks, loopback,
        the jitter draw, the egress NIC cursor and the ingress
        reservation are all implemented here and in
        :meth:`_arrive_batch`. Each destination is charged its own
        egress serialization behind the source's NIC cursor, then
        propagation; all destinations in one site share a single
        composite arrival event instead of one heap push each — a
        unit-wide PBFT broadcast schedules one event per destination
        *site*, not per replica. Ingress NIC reservations for a site's
        batch are made in arrival order when the batch's first message
        lands, so a message with long propagation cannot reserve the
        receiver's NIC ahead of earlier arrivals.
        """
        src = self.node(src_id)
        self.messages_sent += len(dst_ids)
        if src.crashed:
            return
        # A unit-wide PBFT broadcast runs for every protocol phase of
        # every slot, so this loop is the hottest transport code in the
        # library. Everything loop-invariant — option lookups, the
        # egress NIC cursor, the bandwidth conversion — is hoisted, and
        # the cursor is written back once. Egress reservations are
        # monotone because sends happen in event order.
        sim = self.sim
        now = sim.now
        nodes = self.nodes
        options = self.options
        drop_filters = self.drop_filters
        tamper_hooks = self.tamper_hooks
        obs_enabled = self.obs.enabled
        src_site = src.site
        overhead = options.per_message_overhead_bytes
        bytes_per_ms = options.bytes_per_ms()
        one_way_ms = self.topology.one_way_ms
        jitter = options.jitter_ms
        egress = self._egress_free_at
        free = egress.get(src_id, 0.0)
        if free < now:
            free = now
        reserved = False
        bytes_acc = 0
        # Link counters are bumped once per run of same-site
        # destinations (a unit-wide broadcast is a single run).
        link_site = src_site
        link_msgs = 0
        link_bytes = 0
        groups: Dict[str, List[tuple]] = {}
        for dst_id in dst_ids:
            dst = nodes.get(dst_id)
            if dst is None:
                dst = self.node(dst_id)  # raises UnknownNodeError
            if drop_filters and any(
                drop(src_id, dst_id, message) for drop in drop_filters
            ):
                continue
            delivered = message
            if tamper_hooks:
                for tamper in tamper_hooks:
                    delivered = tamper(src_id, dst_id, delivered)
                    if delivered is None:
                        break
                if delivered is None:
                    continue
            dst_site = dst.site
            size = delivered.size_bytes() + overhead
            bytes_acc += size
            if obs_enabled:
                if dst_site != link_site:
                    if link_msgs:
                        self._count_link(
                            src_site, link_site, link_bytes, link_msgs
                        )
                    link_site = dst_site
                    link_msgs = link_bytes = 0
                link_msgs += 1
                link_bytes += size
            if dst_id == src_id:
                # Loopback: no NIC involved, only local processing cost.
                sim.schedule(
                    options.receiver_processing_ms,
                    self._deliver, dst_id, src_id, delivered,
                )
                continue
            # Egress serialization: back-to-back sends queue behind the
            # NIC cursor; propagation is added after the reservation.
            free += size / bytes_per_ms
            reserved = True
            propagation = one_way_ms(src_site, dst_site)
            if jitter > 0:
                propagation += sim.rng.uniform(0.0, jitter)
            group = groups.get(dst_site)
            if group is None:
                group = groups[dst_site] = []
            group.append((free + propagation, dst_id, delivered, size))
        self.bytes_sent += bytes_acc
        if link_msgs:
            self._count_link(src_site, link_site, link_bytes, link_msgs)
        if reserved:
            egress[src_id] = free
        schedule_at = sim.schedule_at
        arrive_batch = self._arrive_batch
        for entries in groups.values():
            if len(entries) > 1:
                entries.sort(key=_entry_arrival)
            schedule_at(entries[0][0], arrive_batch, src_id, entries)

    def _arrive_batch(self, src_id: str, entries: List[tuple]) -> None:
        """Composite arrival: reserve each destination's ingress NIC in
        arrival order and schedule the per-destination deliveries."""
        sim = self.sim
        now = sim.now
        bytes_per_ms = self.options.bytes_per_ms()
        processing = self.options.receiver_processing_ms
        free_at = self._ingress_free_at
        schedule_at = sim.schedule_at
        deliver = self._deliver
        for arrival, dst_id, message, size in entries:
            ingress_start = free_at.get(dst_id, 0.0)
            if arrival > ingress_start:
                ingress_start = arrival
            if now > ingress_start:
                ingress_start = now
            ingress_done = ingress_start + size / bytes_per_ms + processing
            free_at[dst_id] = ingress_done
            schedule_at(ingress_done, deliver, dst_id, src_id, message)

    def _count_link(
        self, src_site: str, dst_site: str, size: int, messages: int = 1
    ) -> None:
        """Per-link byte/message counters (counter objects cached so
        the hot send path does one dict lookup, not a registry walk).
        ``size`` is the total over ``messages`` messages."""
        key = (src_site, dst_site)
        counters = self._link_counters.get(key)
        if counters is None:
            link = f"{src_site}->{dst_site}"
            counters = (
                self.obs.counter("net_messages_total", link=link),
                self.obs.counter("net_bytes_total", link=link),
            )
            self._link_counters[key] = counters
        # Bump ``value`` directly: this runs once per simulated message,
        # and the ``inc()`` wrapper (argument default + sign check) is
        # measurable at that volume. Sizes are non-negative by
        # construction, so the monotonicity guard is redundant here.
        counters[0].value += messages
        counters[1].value += size

    def _deliver(self, dst_id: str, src_id: str, message: "Message") -> None:
        dst = self.nodes.get(dst_id)
        if dst is None or dst.crashed:
            return
        if self._transcode is not None:
            src = self.nodes.get(src_id)
            if src is not None and src.site != dst.site:
                # Wire fidelity: the receiver handles a freshly decoded
                # copy, not the sender's object. Happens after arrival
                # scheduling, so virtual time and event counts are
                # byte-identical with fidelity off.
                message, nbytes = self._transcode(message)
                self.wire_transcodes += 1
                self.wire_bytes += nbytes
        self.messages_delivered += 1
        dst.on_message(message, src_id)

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def add_drop_filter(self, drop: DropFilter) -> DropFilter:
        """Install a drop filter; returns it for later removal."""
        self.drop_filters.append(drop)
        return drop

    def remove_drop_filter(self, drop: DropFilter) -> None:
        """Remove a previously installed drop filter (no-op if absent)."""
        if drop in self.drop_filters:
            self.drop_filters.remove(drop)

    def add_tamper_hook(self, hook: TamperHook) -> TamperHook:
        """Install a tamper hook (byzantine link); returns it."""
        self.tamper_hooks.append(hook)
        return hook

    def remove_tamper_hook(self, hook: TamperHook) -> None:
        """Remove a previously installed tamper hook (no-op if absent)."""
        if hook in self.tamper_hooks:
            self.tamper_hooks.remove(hook)
