"""Tests for geo-correlated fault tolerance: mirror proofs, failover,
and latency behaviour (Section V / Figure 8 mechanics)."""

from repro.core import BlockplaneConfig
from repro.obs.forensics import OnlineAuditor

from tests.conftest import build_four_dc

GEO_SETS = {
    "C": ["C", "V", "O"],
    "V": ["C", "V", "O"],
    "O": ["C", "V", "O"],
    "I": ["I", "V", "C"],
}


def geo_config(**kwargs):
    defaults = dict(f_independent=1, f_geo=1)
    defaults.update(kwargs)
    return BlockplaneConfig(**defaults)


def build(sim, obs=None, **kwargs):
    return build_four_dc(
        sim, config=geo_config(**kwargs), replication_sets=GEO_SETS, obs=obs
    )


def test_commit_gathers_fg_mirror_proofs(sim):
    deployment = build(sim)
    position = sim.run_until_resolved(
        deployment.api("C").log_commit("v"), max_events=20_000_000
    )
    geo = deployment.unit("C").geo
    proofs = sim.run_until_resolved(geo.proofs_for(position))
    assert len(proofs) == 1
    participant, proof = proofs[0]
    assert participant == "O"  # closest peer in the set
    assert proof.is_valid(
        deployment.registry, 2,
        allowed_signers=deployment.directory.unit_members("O"),
    )


def test_mirror_entry_stored_at_secondary(sim):
    deployment = build(sim)
    sim.run_until_resolved(
        deployment.api("C").log_commit("mirrored-value"),
        max_events=20_000_000,
    )
    sim.run(until=sim.now + 100)
    mirrors = deployment.unit("O").gateway_node().mirror_logs.get("C", [])
    assert any(entry.value == "mirrored-value" for entry in mirrors)


def test_geo_latency_tracks_closest_peer(sim):
    deployment = build(sim)
    api = deployment.api("C")
    start = sim.now
    sim.run_until_resolved(api.log_commit("v"), max_events=20_000_000)
    latency = sim.now - start
    # C's closest set member is O (19 ms RTT) plus local commits.
    assert 19.0 < latency < 30.0


def test_backup_failure_fails_over_to_next_closest(sim):
    deployment = build(sim)
    api = deployment.api("C")
    sim.run_until_resolved(api.log_commit("warm"), max_events=20_000_000)
    deployment.unit("O").crash()
    start = sim.now
    sim.run_until_resolved(api.log_commit("after-failure"),
                           max_events=40_000_000)
    first_latency = sim.now - start
    # The first commit pays the detection timeout before reaching V.
    assert first_latency > 60.0
    start = sim.now
    sim.run_until_resolved(api.log_commit("steady"), max_events=40_000_000)
    steady = sim.now - start
    # Suspicion memory: subsequent commits go straight to V (61 ms RTT).
    assert 61.0 < steady < 75.0


def test_mirror_proofs_fail_without_enough_live_peers(sim, obs):
    deployment = build(sim, obs=obs)
    auditor = OnlineAuditor(obs.journal)
    deployment.unit("O").crash()
    deployment.unit("V").crash()
    future = deployment.api("C").log_commit("unprovable")
    sim.run(until=2000.0, max_events=40_000_000)
    assert not future.resolved  # fg proofs unattainable: set peers dead
    # Every mirror request timed out; the auditor names both dead sites.
    diverged = {
        finding.suspect for finding in auditor.report().findings
        if finding.kind == "mirror-divergence"
    }
    assert diverged == {"O", "V"}


def test_primary_failure_triggers_takeover(sim):
    deployment = build(sim)
    changes = []
    for site in ("V", "O"):
        deployment.unit(site).geo.on_primary_change.append(
            lambda primary, epoch: changes.append((primary, epoch))
        )
    sim.run(until=300.0)  # heartbeats flowing
    deployment.unit("C").crash()
    sim.run(until=1500.0)
    assert changes, "no takeover happened"
    assert changes[0][0] == "V"  # next in the replication set order
    assert deployment.unit("V").geo.is_primary


def test_no_spurious_takeover_while_primary_alive(sim, obs):
    deployment = build(sim, obs=obs)
    sim.run(until=2000.0)
    assert deployment.unit("C").geo.is_primary
    assert not deployment.unit("V").geo.is_primary
    assert [e for e in obs.journal if e.kind == "geo.take_over"] == []


def test_new_primary_commits_with_remaining_peers(sim):
    deployment = build(sim)
    sim.run(until=300.0)
    deployment.unit("C").crash()
    sim.run(until=1500.0)
    assert deployment.unit("V").geo.is_primary
    start = sim.now
    sim.run_until_resolved(
        deployment.api("V").log_commit("from-new-primary"),
        max_events=40_000_000,
    )
    # V's proofs now come from O (79 ms) or pay C's timeout first; in
    # either case the commit completes.
    assert sim.now - start < 500.0


def test_takeover_announcement_updates_other_secondaries(sim):
    deployment = build(sim)
    sim.run(until=300.0)
    deployment.unit("C").crash()
    sim.run(until=1500.0)
    assert deployment.unit("O").geo.current_primary == "V"


def test_fg_zero_skips_geo_machinery(sim, obs):
    deployment = build_four_dc(sim, config=BlockplaneConfig(f_geo=0), obs=obs)
    sim.run_until_resolved(deployment.api("C").log_commit("v"))
    sim.run(until=sim.now + 100)
    assert "geo_proof_ms" not in {m.name for m in obs.registry.all_metrics()}
    assert deployment.unit("C").geo is None


def test_transmissions_carry_geo_proofs_and_are_verified(sim):
    deployment = build(sim)
    api_c = deployment.api("C")
    api_v = deployment.api("V")
    got = []

    def receiver():
        message = yield api_v.receive("C")
        got.append(message)

    sim.spawn(receiver())
    sim.run_until_resolved(api_c.send("geo-message", to="V"),
                           max_events=40_000_000)
    sim.run(until=3000.0)
    assert got == ["geo-message"]
    log_v = deployment.unit("V").gateway_node().local_log
    sealed = next(
        e.value for e in log_v if e.record_type == "received"
    )
    assert len(sealed.geo_proofs) >= 1


def test_truncation_forgets_folded_positions(sim):
    # The seq → position map and the geo proof maps are bounded by the
    # Local Log window: a fold drops every position below the new base.
    deployment = build(sim)
    api = deployment.api("C")

    def commits():
        for index in range(150):
            yield api.log_commit(f"v{index}", payload_bytes=1000)

    sim.run_until_resolved(sim.spawn(commits()), max_events=50_000_000)
    unit = deployment.unit("C")
    base = unit.gateway_node().local_log.base_position
    assert base > 100, "the log never folded — test is vacuous"
    for node in unit.nodes:
        assert node.local_log.base_position == base
        assert min(node._seq_to_position.values()) >= base
        assert len(node._seq_to_position) == node.local_log.retained_count
    assert min(unit.geo._proof_futures) >= base
    assert min(unit.geo._gathering) >= base
