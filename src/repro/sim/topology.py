"""Datacenter topologies, including the paper's Table I RTT matrix.

The evaluation in the paper runs across four Amazon AWS datacenters —
California (C), Oregon (O), Virginia (V), and Ireland (I) — whose
pairwise round-trip times are reported in Table I. The same matrix is
encoded here and drives every wide-area experiment in
:mod:`repro.experiments`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

#: Site labels used throughout the paper's evaluation.
AWS_SITES: Tuple[str, ...] = ("C", "O", "V", "I")

#: Table I — average round-trip times in milliseconds between the four
#: AWS datacenters: California, Oregon, Virginia, Ireland.
AWS_RTT_MS: Dict[Tuple[str, str], float] = {
    ("C", "O"): 19.0,
    ("C", "V"): 61.0,
    ("C", "I"): 130.0,
    ("O", "V"): 79.0,
    ("O", "I"): 132.0,
    ("V", "I"): 70.0,
}

#: Default one-way latency between two machines in the same datacenter.
#: Calibrated so that a three-phase PBFT commit of a small batch takes
#: about 1 ms, matching Figure 4(a).
DEFAULT_INTRA_DC_ONE_WAY_MS = 0.18


@dataclasses.dataclass(frozen=True)
class Site:
    """A datacenter participating in the deployment.

    Attributes:
        name: Short label, e.g. ``"C"`` for California.
        index: Position in the topology's site list.
    """

    name: str
    index: int


class Topology:
    """Sites plus the symmetric RTT matrix between them.

    Args:
        site_names: Ordered site labels.
        rtt_ms: Mapping from unordered site-name pairs to RTT in
            milliseconds. Only one orientation of each pair is needed.
        intra_dc_one_way_ms: One-way latency between two nodes that live
            in the same site.

    Raises:
        ConfigurationError: If a pair is missing from ``rtt_ms`` or an
            RTT is non-positive.
    """

    def __init__(
        self,
        site_names: Sequence[str],
        rtt_ms: Dict[Tuple[str, str], float],
        intra_dc_one_way_ms: float = DEFAULT_INTRA_DC_ONE_WAY_MS,
    ) -> None:
        if len(set(site_names)) != len(site_names):
            raise ConfigurationError(f"duplicate site names in {site_names}")
        self.sites: List[Site] = [
            Site(name, index) for index, name in enumerate(site_names)
        ]
        self.intra_dc_one_way_ms = intra_dc_one_way_ms
        self._rtt: Dict[Tuple[str, str], float] = {}
        for (a, b), rtt in rtt_ms.items():
            if rtt <= 0:
                raise ConfigurationError(f"RTT for {(a, b)} must be positive")
            self._rtt[(a, b)] = rtt
            self._rtt[(b, a)] = rtt
        for a in site_names:
            for b in site_names:
                if a != b and (a, b) not in self._rtt:
                    raise ConfigurationError(f"missing RTT for pair {(a, b)}")

    @property
    def site_names(self) -> List[str]:
        """Ordered list of site labels."""
        return [site.name for site in self.sites]

    def rtt_ms(self, a: str, b: str) -> float:
        """Round-trip time between two sites (0 within a site)."""
        if a == b:
            return 2.0 * self.intra_dc_one_way_ms
        return self._rtt[(a, b)]

    def one_way_ms(self, a: str, b: str) -> float:
        """One-way propagation latency between two sites."""
        if a == b:
            return self.intra_dc_one_way_ms
        return self._rtt[(a, b)] / 2.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the operator console's topology section).

        The RTT matrix is emitted as a sorted edge list with each
        unordered pair appearing once, so equal topologies serialize
        identically regardless of construction order.
        """
        edges = sorted(
            [a, b, self._rtt[(a, b)]]
            for a, b in self._rtt
            if a < b
        )
        return {
            "sites": self.site_names,
            "rtt_ms": edges,
            "intra_dc_one_way_ms": self.intra_dc_one_way_ms,
        }

    def neighbors_by_distance(self, origin: str) -> List[Tuple[str, float]]:
        """Other sites sorted by ascending RTT from ``origin``.

        Used for geo-correlated fault tolerance: a participant collects
        proofs from its ``fg`` closest peers (Section V).
        """
        pairs = [
            (site.name, self.rtt_ms(origin, site.name))
            for site in self.sites
            if site.name != origin
        ]
        pairs.sort(key=lambda pair: (pair[1], pair[0]))
        return pairs


def aws_four_dc_topology(
    intra_dc_one_way_ms: float = DEFAULT_INTRA_DC_ONE_WAY_MS,
) -> Topology:
    """The paper's evaluation topology: Table I over C, O, V, I."""
    return Topology(AWS_SITES, AWS_RTT_MS, intra_dc_one_way_ms)


def single_dc_topology(
    name: str = "DC",
    intra_dc_one_way_ms: float = DEFAULT_INTRA_DC_ONE_WAY_MS,
) -> Topology:
    """A topology with one datacenter (local-commit experiments)."""
    return Topology([name], {}, intra_dc_one_way_ms)


def symmetric_topology(
    site_names: Sequence[str],
    rtt_ms: float,
    intra_dc_one_way_ms: float = DEFAULT_INTRA_DC_ONE_WAY_MS,
) -> Topology:
    """A topology where every pair of sites has the same RTT.

    Handy for tests and ablations that want to isolate protocol effects
    from topology effects.
    """
    matrix = {
        (a, b): rtt_ms
        for i, a in enumerate(site_names)
        for b in list(site_names)[i + 1 :]
    }
    return Topology(site_names, matrix, intra_dc_one_way_ms)
