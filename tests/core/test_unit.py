"""Tests for unit construction and wiring."""

import pytest

from repro.core import BlockplaneConfig
from repro.core.verification import VerificationRoutines
from repro.errors import ConfigurationError

from tests.conftest import build_four_dc, build_single_dc


def test_node_ids_follow_convention(sim):
    deployment = build_single_dc(sim, f_independent=2)
    unit = deployment.unit("DC")
    assert [node.node_id for node in unit.nodes] == [
        f"DC-{index}" for index in range(7)
    ]


def test_daemons_attached_per_destination(sim):
    deployment = build_four_dc(sim)
    unit = deployment.unit("C")
    assert set(unit.daemons) == {"O", "V", "I"}
    gateway = unit.gateway_node()
    for daemon in unit.daemons.values():
        assert daemon.node is gateway


def test_reserves_live_on_non_gateway_nodes(sim):
    deployment = build_four_dc(sim)
    unit = deployment.unit("C")
    gateway = unit.gateway_node()
    # f+1 reserve hosts per destination.
    assert len(unit.reserves) == (1 + 1) * 3
    for reserve in unit.reserves:
        assert reserve.node is not gateway


def test_each_node_gets_its_own_routines_instance(sim):
    class Marker(VerificationRoutines):
        instances = []

        def __init__(self):
            Marker.instances.append(self)

    Marker.instances = []
    deployment = build_single_dc(
        sim, routines_factory=lambda _name: Marker()
    )
    unit = deployment.unit("DC")
    routines = [node.routines for node in unit.nodes]
    assert len(set(map(id, routines))) == len(routines)


def test_bind_hook_called_with_owning_node(sim):
    bound = []

    class Binder(VerificationRoutines):
        def bind(self, node):
            bound.append(node.node_id)

    build_single_dc(sim, routines_factory=lambda _name: Binder())
    assert sorted(bound) == [f"DC-{index}" for index in range(4)]


def test_shared_routines_instance_supported(sim):
    from repro.core.unit import BlockplaneUnit
    from repro.core.directory import Directory
    from repro.crypto.keys import KeyRegistry
    from repro.sim.network import Network
    from repro.sim.topology import single_dc_topology

    shared = VerificationRoutines()
    topology = single_dc_topology("Z")
    network = Network(sim, topology)
    directory = Directory(topology, KeyRegistry())
    unit = BlockplaneUnit(
        sim, network, "Z", BlockplaneConfig(), directory, shared
    )
    assert all(node.routines is shared for node in unit.nodes)


def test_duplicate_unit_registration_rejected(sim):
    deployment = build_single_dc(sim)
    with pytest.raises(ConfigurationError):
        deployment.directory.register_unit("DC", ["DC-9"])
