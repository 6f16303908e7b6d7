"""Tests for the deployment builder and recovery helpers."""

import pytest

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.core.recovery import (
    await_log_length,
    current_leader,
    force_view_change,
)
from repro.errors import ConfigurationError
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology, single_dc_topology

from tests.conftest import build_four_dc, build_single_dc


def test_unit_sizes_follow_config(sim):
    deployment = build_four_dc(sim, config=BlockplaneConfig(f_independent=2))
    for participant in deployment.participants:
        assert len(deployment.unit(participant).nodes) == 7


def test_every_node_registered_in_directory_and_registry(sim):
    deployment = build_four_dc(sim)
    for participant in deployment.participants:
        members = deployment.directory.unit_members(participant)
        assert len(members) == 4
        for node_id in members:
            assert node_id in deployment.registry


def test_unknown_participant_lookup(sim):
    deployment = build_four_dc(sim)
    with pytest.raises(ConfigurationError):
        deployment.api("X")
    with pytest.raises(ConfigurationError):
        deployment.unit("X")


def test_participants_subset(sim):
    deployment = BlockplaneDeployment(
        sim,
        aws_four_dc_topology(),
        BlockplaneConfig(),
        participants=["C", "V"],
    )
    assert deployment.participants == ["C", "V"]


def test_fg_needs_enough_participants():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        BlockplaneDeployment(
            sim,
            single_dc_topology(),
            BlockplaneConfig(f_geo=1),
        )


def test_default_replication_sets_are_closest_peers(sim):
    deployment = build_four_dc(sim, config=BlockplaneConfig(f_geo=1))
    geo_c = deployment.unit("C").geo
    assert geo_c.replication_set == ["C", "O", "V"]


def test_all_nodes_enumeration(sim):
    deployment = build_four_dc(sim)
    assert len(deployment.all_nodes()) == 16


def test_gateway_prefers_configured_then_leader_then_any(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    assert unit.gateway_node().node_id == "DC-0"
    unit.nodes[0].crash()
    fallback = unit.gateway_node()
    assert fallback.node_id != "DC-0"
    for node in unit.nodes:
        node.crash()
    with pytest.raises(ConfigurationError):
        unit.gateway_node()


def test_unit_crash_and_recover(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    unit.crash()
    assert all(node.crashed for node in unit.nodes)
    unit.recover()
    assert not any(node.crashed for node in unit.nodes)


def test_current_leader_helper(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    assert current_leader(unit) == "DC-0"


def test_await_log_length_converges(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")

    def committer():
        for index in range(3):
            yield api.log_commit(f"v{index}")

    sim.spawn(committer())
    when = sim.run_until_resolved(
        await_log_length(deployment.unit("DC"), 3), max_events=5_000_000
    )
    assert when > 0
    for node in deployment.unit("DC").nodes:
        assert len(node.local_log) == 3


def test_force_view_change_rotates_leader(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    force_view_change(unit)
    sim.run(until=200.0)
    assert max(node.view for node in unit.nodes) >= 1


def test_resync_node_catches_up(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    lagger = deployment.unit("DC").nodes[3]
    lagger.crash()

    def committer():
        for index in range(4):
            yield api.log_commit(f"v{index}")

    sim.run_until_resolved(sim.spawn(committer()))
    lagger.recover()
    sim.run(until=sim.now + 100)
    assert len(lagger.local_log) == 4
