"""A Blockplane unit: the ``3·fi + 1`` nodes of one participant.

The unit object owns node construction and the wiring of daemons,
reserves, and the geo coordinator; user-space talks to it through
:class:`repro.core.api.BlockplaneAPI`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Type

from repro.core.config import BlockplaneConfig
from repro.core.daemon import CommunicationDaemon, ReserveDaemon
from repro.core.directory import Directory
from repro.core.node import BlockplaneNode
from repro.core.verification import AcceptAll
from repro.errors import ConfigurationError
from repro.obs.hub import DISABLED

if TYPE_CHECKING:
    from repro.core.geo import GeoCoordinator


class BlockplaneUnit:
    """One participant's Blockplane infrastructure.

    Args:
        sim: Owning simulator.
        network: Transport.
        participant: Participant (site) name.
        config: Deployment configuration.
        directory: Shared membership/keys (this unit registers itself).
        routines_factory: Zero-argument callable returning one node's
            verification routines (default: ``AcceptAll``).
        node_class_overrides: node id → class, to plant byzantine node
            variants in tests.
    """

    def __init__(
        self,
        sim,
        network,
        participant: str,
        config: BlockplaneConfig,
        directory: Directory,
        routines_factory=None,
        node_class_overrides: Optional[Dict[str, Type[BlockplaneNode]]] = None,
        obs=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.participant = participant
        self.config = config
        self.directory = directory
        self.obs = obs if obs is not None else DISABLED
        if routines_factory is None:
            routines_factory = AcceptAll
        self.node_ids = [
            f"{participant}-{index}" for index in range(config.unit_size)
        ]
        directory.register_unit(participant, self.node_ids, self.node_ids[0])
        overrides = node_class_overrides or {}
        self.nodes: List[BlockplaneNode] = []
        for node_id in self.node_ids:
            node_class = overrides.get(node_id, BlockplaneNode)
            # Each node gets its OWN routines instance: stateful
            # routines replay that node's log to judge transitions.
            routines = routines_factory()
            node = node_class(
                sim,
                network,
                node_id,
                participant,
                list(self.node_ids),
                config,
                directory,
                routines,
                obs=self.obs,
            )
            bind = getattr(routines, "bind", None)
            if callable(bind):
                bind(node)
            self.nodes.append(node)
        self.daemons: Dict[str, CommunicationDaemon] = {}
        self.reserves: List[ReserveDaemon] = []
        self.geo: Optional[GeoCoordinator] = None

    # ------------------------------------------------------------------
    # Wiring (called by the deployment builder)
    # ------------------------------------------------------------------
    def attach_geo(self, replication_set: List[str]) -> GeoCoordinator:
        """Attach the geo coordinator to the gateway node."""
        from repro.core.geo import GeoCoordinator

        if self.geo is not None:
            raise ConfigurationError(
                f"{self.participant}: geo coordinator already attached"
            )
        self.geo = GeoCoordinator(self.gateway_node(), replication_set)
        return self.geo

    def attach_daemons(self, destinations: List[str]) -> None:
        """Create one communication daemon per destination on the
        gateway node, plus ``fi + 1`` reserves on other unit members."""
        gateway = self.gateway_node()
        for destination in destinations:
            if destination == self.participant:
                continue
            self.daemons[destination] = CommunicationDaemon(
                gateway, destination, geo=self.geo
            )
        reserve_hosts = [
            node for node in self.nodes if node is not gateway
        ][: self.config.proof_size]
        for host in reserve_hosts:
            if self.geo is not None and host.geo is None:
                # Reserve daemons must be able to attach geo proofs to
                # transmissions they re-ship; give their hosts passive
                # (proof-gathering-only) coordinators.
                from repro.core.geo import GeoCoordinator

                GeoCoordinator(
                    host, list(self.geo.replication_set), passive=True
                )
            for host_destination in destinations:
                if host_destination == self.participant:
                    continue
                reserve = ReserveDaemon(host, host_destination, geo=host.geo)
                host.reserves.append(reserve)
                self.reserves.append(reserve)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def gateway_node(self) -> BlockplaneNode:
        """The node user-space enters through.

        Prefers the configured gateway while it is alive (keeping the
        paper's "instructions are called at the leader" fast path),
        falling back to the current PBFT leader and then to any live
        member.
        """
        preferred = self.directory.gateway(self.participant)
        for node in self.nodes:
            if node.node_id == preferred and not node.crashed:
                return node
        for node in self.nodes:
            if not node.crashed and node.is_leader:
                return node
        for node in self.nodes:
            if not node.crashed:
                return node
        raise ConfigurationError(
            f"unit {self.participant} has no live nodes"
        )

    def live_nodes(self) -> List[BlockplaneNode]:
        """Unit members that are currently up."""
        return [node for node in self.nodes if not node.crashed]

    def crash(self) -> None:
        """Geo-correlated failure: take the whole participant down."""
        for node in self.nodes:
            if not node.crashed:
                node.crash()

    def recover(self) -> None:
        """Bring every unit member back (they catch up via PBFT)."""
        for node in self.nodes:
            if node.crashed:
                node.recover()
