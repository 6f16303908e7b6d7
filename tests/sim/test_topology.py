"""Unit tests for topologies and the Table I matrix."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.topology import (
    AWS_SITES,
    Topology,
    aws_four_dc_topology,
    symmetric_topology,
)


def test_aws_topology_matches_table1():
    topology = aws_four_dc_topology()
    assert topology.rtt_ms("C", "O") == 19.0
    assert topology.rtt_ms("C", "V") == 61.0
    assert topology.rtt_ms("C", "I") == 130.0
    assert topology.rtt_ms("O", "V") == 79.0
    assert topology.rtt_ms("O", "I") == 132.0
    assert topology.rtt_ms("V", "I") == 70.0


def test_rtt_is_symmetric():
    topology = aws_four_dc_topology()
    for a in AWS_SITES:
        for b in AWS_SITES:
            assert topology.rtt_ms(a, b) == topology.rtt_ms(b, a)


def test_one_way_is_half_rtt():
    topology = aws_four_dc_topology()
    assert topology.one_way_ms("C", "I") == 65.0


def test_intra_dc_latency():
    topology = aws_four_dc_topology(intra_dc_one_way_ms=0.25)
    assert topology.one_way_ms("C", "C") == 0.25
    assert topology.rtt_ms("C", "C") == 0.5


def test_neighbors_by_distance():
    topology = aws_four_dc_topology()
    assert [name for name, _ in topology.neighbors_by_distance("C")] == [
        "O",
        "V",
        "I",
    ]
    assert [name for name, _ in topology.neighbors_by_distance("V")] == [
        "C",
        "I",
        "O",
    ]


def test_missing_pair_rejected():
    with pytest.raises(ConfigurationError):
        Topology(["A", "B", "C"], {("A", "B"): 10.0})


def test_duplicate_site_rejected():
    with pytest.raises(ConfigurationError):
        Topology(["A", "A"], {})


def test_non_positive_rtt_rejected():
    with pytest.raises(ConfigurationError):
        Topology(["A", "B"], {("A", "B"): 0.0})


def test_symmetric_topology_all_pairs_equal():
    topology = symmetric_topology(["A", "B", "C"], 42.0)
    assert topology.rtt_ms("A", "C") == 42.0
    assert topology.rtt_ms("B", "C") == 42.0
