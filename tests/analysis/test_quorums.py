"""repro.pbft.quorums: the one home of the fault-model arithmetic.

This file asserts the raw formulas against the helpers, which is the
one legitimate place to write them outside quorums.py itself.
"""
# bp-lint: disable=BP002 -- asserts the raw formulas against the helpers

from repro.pbft import quorums
from repro.baselines.hierarchical_pbft import HierarchicalPBFTDeployment
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology


def test_unit_size_matches_paper():
    # n = 3f + 1 (Section IV-B).
    assert quorums.unit_size(0) == 1
    assert quorums.unit_size(1) == 4
    assert quorums.unit_size(2) == 7
    assert quorums.unit_size(3) == 10


def test_max_faulty_inverts_unit_size():
    for f in range(6):
        assert quorums.max_faulty(quorums.unit_size(f)) == f
    # Non-exact sizes floor to the largest tolerable f.
    assert quorums.max_faulty(5) == 1
    assert quorums.max_faulty(6) == 1


def test_commit_and_reply_quorums():
    for f in range(6):
        assert quorums.commit_quorum(f) == 2 * f + 1
        assert quorums.reply_quorum(f) == f + 1
        assert quorums.proof_quorum(f) == f + 1


def test_quorum_intersection_property():
    # Two commit quorums in a 3f+1 unit intersect in >= f+1 nodes, so
    # every pair of quorums shares at least one honest node.
    for f in range(1, 6):
        n = quorums.unit_size(f)
        overlap = 2 * quorums.commit_quorum(f) - n
        assert overlap >= quorums.reply_quorum(f)


def test_majority_helpers():
    assert quorums.majority(4) == 3
    assert quorums.majority(5) == 3
    assert quorums.site_majority(4) == 3


def test_hierarchical_unit_sizing_follows_f():
    """Regression: unit membership was hardcoded for f=1; f=2 sites
    must get 3*2+1 = 7 replicas each."""
    sim = Simulator(seed=7)
    deployment = HierarchicalPBFTDeployment(
        sim, aws_four_dc_topology(), "C", f=2
    )
    for site, nodes in deployment.units.items():
        assert len(nodes) == quorums.unit_size(2) == 7, site
