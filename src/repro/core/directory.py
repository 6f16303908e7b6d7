"""The deployment directory: who is where, and their keys.

Blockplane is permissioned: every node knows the full membership
(Section III-B). The :class:`Directory` is that shared knowledge —
participant names, each participant's unit membership, gateway nodes,
and the key registry backing signature verification.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.crypto.keys import KeyRegistry
from repro.errors import ConfigurationError
from repro.sim.topology import Topology


class Directory:
    """Membership and key material shared by all honest nodes.

    Args:
        topology: Site layout (participants are sites).
        registry: The deployment's key registry.
    """

    def __init__(self, topology: Topology, registry: KeyRegistry) -> None:
        self.topology = topology
        self.registry = registry
        self._units: Dict[str, List[str]] = {}
        self._gateways: Dict[str, str] = {}

    def register_unit(
        self, participant: str, node_ids: List[str], gateway: Optional[str] = None
    ) -> None:
        """Record a participant's unit membership."""
        if participant in self._units:
            raise ConfigurationError(f"unit for {participant!r} already registered")
        self._units[participant] = list(node_ids)
        self._gateways[participant] = gateway or node_ids[0]

    @property
    def participants(self) -> List[str]:
        """All registered participant names, in registration order."""
        return list(self._units)

    def unit_members(self, participant: str) -> List[str]:
        """Node ids of one participant's Blockplane unit."""
        try:
            return list(self._units[participant])
        except KeyError:
            raise ConfigurationError(
                f"unknown participant {participant!r}"
            ) from None

    def gateway(self, participant: str) -> str:
        """The node user-space calls enter through (typically the unit's
        initial PBFT leader)."""
        try:
            return self._gateways[participant]
        except KeyError:
            raise ConfigurationError(
                f"unknown participant {participant!r}"
            ) from None

    def rtt_ms(self, a: str, b: str) -> float:
        """Round-trip time between two participants."""
        return self.topology.rtt_ms(a, b)
