"""Edge cases for the recovery helpers (core/recovery.py).

test_middleware.py covers the happy paths; these pin down behaviour
under partial and total failure, and the interaction between forced
view changes and in-flight daemon proposals.
"""

from repro.core.recovery import (
    await_log_length,
    current_leader,
    force_view_change,
)

from tests.conftest import build_single_dc


def test_current_leader_is_none_when_all_nodes_are_down(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    unit.crash()
    assert current_leader(unit) is None


def test_current_leader_survives_a_minority_crash(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    unit.nodes[3].crash()
    assert current_leader(unit) == "DC-0"


def test_current_leader_tracks_forced_view_changes(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    old = current_leader(unit)
    force_view_change(unit)
    sim.run(until=300.0)
    new = current_leader(unit)
    assert new != old
    assert new in [node.node_id for node in unit.nodes]


def test_force_view_change_on_a_dead_unit_is_a_no_op(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    unit.crash()
    force_view_change(unit)  # must not raise
    assert all(node.view == 0 for node in unit.nodes)


def test_unit_still_commits_after_forced_view_change(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    api = deployment.api("DC")

    def scenario():
        yield api.log_commit("before")
        force_view_change(unit)
        yield sim.sleep(300.0)
        yield api.log_commit("after")

    sim.run_until_resolved(sim.spawn(scenario()), max_events=5_000_000)
    sim.run_until_resolved(await_log_length(unit, 2), max_events=5_000_000)
    values = [entry.value for entry in unit.nodes[0].local_log.entries]
    assert values == ["before", "after"]


def test_view_change_clears_in_flight_gateway_proposals(sim):
    # Regression: the gateway's dedup sets must be dropped on a view
    # change, or receptions pre-proposed in the dead view are never
    # re-proposed in the new one.
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    gateway = unit.gateway_node()
    gateway._reception("X").proposed.add(1)
    gateway._proposed_mirrors.add(("X", 1))
    force_view_change(unit)
    sim.run(until=300.0)
    assert gateway.receptions["X"].proposed == set()
    assert gateway._proposed_mirrors == set()


def test_await_log_length_ignores_crashed_nodes(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    api = deployment.api("DC")
    unit.nodes[3].crash()

    def committer():
        yield api.log_commit("v0")

    sim.spawn(committer())
    when = sim.run_until_resolved(
        await_log_length(unit, 1), max_events=5_000_000
    )
    assert when > 0
    assert len(unit.nodes[3].local_log) == 0  # still down, still behind


def test_resync_after_silent_rejoin_restores_the_suffix(sim):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    api = deployment.api("DC")
    lagger = unit.nodes[2]
    lagger.crash()

    def committer():
        for index in range(3):
            yield api.log_commit(f"v{index}")

    sim.run_until_resolved(sim.spawn(committer()), max_events=5_000_000)
    assert len(lagger.local_log) == 0
    lagger.recover()
    sim.run(until=sim.now + 200.0)
    assert len(lagger.local_log) == 3
    assert [entry.value for entry in lagger.local_log.entries] == [
        "v0", "v1", "v2",
    ]
