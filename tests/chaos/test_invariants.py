"""Tests for the static budget checker and dynamic invariant suite."""

from repro.chaos.invariants import (
    byzantine_node_ids,
    check_at_most_once,
    check_local_log_agreement,
    check_plan_budget,
    check_post_heal,
    check_transmission_chains,
)
from repro.chaos.plan import FaultAction, FaultBudget, FaultPlan
from repro.core.records import (
    RECORD_COMMUNICATION,
    RECORD_LOG_COMMIT,
    RECORD_RECEIVED,
    RECORD_TRUNCATE,
    SealedTransmission,
    TransmissionRecord,
)
from repro.crypto.signatures import QuorumProof

from tests.conftest import apply_committed, build_pair


def plan_with(*actions, f_geo=0):
    return FaultPlan(
        seed=1,
        budget=FaultBudget(f_independent=1, f_geo=f_geo,
                           horizon_ms=10_000.0),
        actions=tuple(actions),
    )


def invariants_of(violations):
    return [violation.invariant for violation in violations]


# ----------------------------------------------------------------------
# Static budget checks
# ----------------------------------------------------------------------
def test_clean_plan_passes_budget_check():
    plan = plan_with(
        FaultAction(kind="crash", site="V", node_index=1,
                    start=500.0, end=1_500.0),
        FaultAction(kind="crash", site="V", node_index=2,
                    start=2_000.0, end=3_000.0),  # disjoint: fine
    )
    assert check_plan_budget(plan) == []


def test_overlapping_member_faults_exceed_fi():
    plan = plan_with(
        FaultAction(kind="crash", site="V", node_index=1,
                    start=500.0, end=2_000.0),
        FaultAction(kind="crash", site="V", node_index=2,
                    start=1_000.0, end=1_800.0),
    )
    violations = check_plan_budget(plan)
    assert invariants_of(violations) == ["budget"]
    assert "concurrent faulty members" in violations[0].detail


def test_withholding_counts_against_the_gateway():
    # A withholding daemon (member 0) plus a crashed member 1 is two
    # concurrent faulty members — over an fi=1 budget.
    plan = plan_with(
        FaultAction(kind="withhold", site="I", peer="C",
                    start=500.0, end=2_000.0),
        FaultAction(kind="crash", site="I", node_index=1,
                    start=800.0, end=1_500.0),
    )
    assert "budget" in invariants_of(check_plan_budget(plan))


def test_byzantine_plant_occupies_whole_run():
    plan = plan_with(
        FaultAction(kind="byzantine", site="C", node_index=2,
                    behavior="silent"),
        FaultAction(kind="crash", site="C", node_index=1,
                    start=4_000.0, end=5_000.0),
    )
    assert "budget" in invariants_of(check_plan_budget(plan))


def test_concurrent_site_outages_exceed_fg():
    plan = plan_with(
        FaultAction(kind="site_outage", site="C", start=500.0, end=2_000.0),
        FaultAction(kind="site_outage", site="V", start=1_000.0, end=1_500.0),
        f_geo=1,
    )
    violations = check_plan_budget(plan)
    assert invariants_of(violations) == ["budget"]
    assert "concurrent site outages" in violations[0].detail


def test_malformed_actions_are_reported():
    plan = plan_with(
        FaultAction(kind="crash", site="X", node_index=0,
                    start=1.0, end=2.0),                      # unknown site
        FaultAction(kind="partition", site="C", peer="C",
                    start=1.0, end=2.0),                      # self-peer
        FaultAction(kind="crash", site="V", node_index=1, start=1.0),  # open
        FaultAction(kind="crash", site="V", node_index=9,
                    start=1.0, end=2.0),                      # bad index
        FaultAction(kind="loss", probability=0.95, start=1.0, end=2.0),
        FaultAction(kind="byzantine", site="O", node_index=0,
                    behavior="silent"),                       # gateway plant
        FaultAction(kind="crash", site="V", node_index=1,
                    start=1.0, end=20_000.0),                 # past horizon
    )
    details = "\n".join(v.detail for v in check_plan_budget(plan))
    for fragment in ("unknown site", "bad peer", "window never closes",
                     "node index out of unit", "loss probability",
                     "non-gateway", "outlives"):
        assert fragment in details


def test_byzantine_node_ids_from_plan():
    plan = plan_with(
        FaultAction(kind="byzantine", site="C", node_index=2,
                    behavior="silent"),
    )
    assert byzantine_node_ids(plan) == {"C-2"}


# ----------------------------------------------------------------------
# Dynamic checks against a (manipulated) deployment
# ----------------------------------------------------------------------
def _sealed(source, destination, position, prev, message="m"):
    record = TransmissionRecord(
        source=source, destination=destination, message=message,
        source_position=position, prev_position=prev,
    )
    return SealedTransmission(
        record=record, proof=QuorumProof(digest=record.digest(), signatures=())
    )


def test_fresh_deployment_is_clean(sim):
    deployment = build_pair(sim)
    assert check_local_log_agreement(deployment) == []
    assert check_transmission_chains(deployment) == []
    assert check_at_most_once(deployment) == []
    assert check_post_heal(deployment) == []


def test_log_fork_is_detected(sim):
    deployment = build_pair(sim)
    unit = deployment.unit("A")
    unit.nodes[0].local_log.append(RECORD_LOG_COMMIT, "good")
    unit.nodes[1].local_log.append(RECORD_LOG_COMMIT, "evil")
    violations = check_local_log_agreement(deployment)
    assert "log-fork" in invariants_of(violations)


def test_length_divergence_is_a_convergence_violation(sim):
    deployment = build_pair(sim)
    deployment.unit("A").nodes[0].local_log.append(RECORD_LOG_COMMIT, "x")
    violations = check_local_log_agreement(deployment)
    assert invariants_of(violations) == ["convergence"]


def test_crashed_nodes_are_excluded_from_agreement(sim):
    deployment = build_pair(sim)
    node = deployment.unit("A").nodes[0]
    node.local_log.append(RECORD_LOG_COMMIT, "x")
    node.crashed = True
    assert check_local_log_agreement(deployment) == []
    assert invariants_of(check_post_heal(deployment)) == ["post-heal"]


def test_chain_gap_when_a_committed_send_never_arrives(sim):
    deployment = build_pair(sim)
    log_a = deployment.unit("A").nodes[0].local_log
    log_a.append(RECORD_COMMUNICATION, "m1", meta={"destination": "B"})
    violations = check_transmission_chains(deployment)
    assert invariants_of(violations) == ["chain-gap"]
    assert violations[0].site == "B"


def test_chain_forgery_when_receiver_holds_unknown_position(sim):
    deployment = build_pair(sim)
    log_b = deployment.unit("B").nodes[0].local_log
    log_b.append(RECORD_RECEIVED, _sealed("A", "B", position=4, prev=None))
    violations = check_transmission_chains(deployment)
    assert "chain-forgery" in invariants_of(violations)


def test_chain_pointer_mismatch_is_detected(sim):
    deployment = build_pair(sim)
    log_a = deployment.unit("A").nodes[0].local_log
    first = log_a.append(RECORD_COMMUNICATION, "m1", meta={"destination": "B"})
    second = log_a.append(RECORD_COMMUNICATION, "m2", meta={"destination": "B"})
    node_b = deployment.unit("B").nodes[0]
    apply_committed(
        node_b, RECORD_RECEIVED, _sealed("A", "B", first.position, None)
    )
    # Claims the wrong predecessor for the second record.
    apply_committed(
        node_b, RECORD_RECEIVED, _sealed("A", "B", second.position, None)
    )
    violations = check_transmission_chains(deployment)
    assert invariants_of(violations) == ["chain-pointer"]


def test_duplicate_delivery_is_detected(sim):
    deployment = build_pair(sim)
    log_a = deployment.unit("A").nodes[0].local_log
    entry = log_a.append(RECORD_COMMUNICATION, "m1", meta={"destination": "B"})
    log_b = deployment.unit("B").nodes[0].local_log
    log_b.append(RECORD_RECEIVED, _sealed("A", "B", entry.position, None))
    log_b.append(RECORD_RECEIVED, _sealed("A", "B", entry.position, None))
    violations = check_at_most_once(deployment)
    assert invariants_of(violations) == ["duplicate-delivery"]


# ----------------------------------------------------------------------
# Truncation-aware invariants
# ----------------------------------------------------------------------
def test_truncated_and_full_logs_still_agree(sim):
    deployment = build_pair(sim)
    logs = [node.local_log for node in deployment.unit("A").nodes]
    for log in logs:
        for value in ("a", "b", "c", "d"):
            log.append(RECORD_LOG_COMMIT, value)
    logs[1].truncate_before(3)
    assert check_local_log_agreement(deployment) == []


def test_snapshot_divergence_across_the_truncation_boundary(sim):
    deployment = build_pair(sim)
    full, truncated = (
        deployment.unit("A").nodes[0].local_log,
        deployment.unit("A").nodes[1].local_log,
    )
    for value in ("a", "b", "c", "d"):
        full.append(RECORD_LOG_COMMIT, value)
    for value in ("a", "EVIL", "c", "d"):
        truncated.append(RECORD_LOG_COMMIT, value)
    truncated.truncate_before(3)
    # The forged entry is hidden inside the folded prefix; only the
    # base-chain cross-check can see it.
    violations = check_local_log_agreement(deployment)
    assert "snapshot-divergence" in invariants_of(violations)


def test_fork_in_the_retained_overlap_still_reported(sim):
    deployment = build_pair(sim)
    full, truncated = (
        deployment.unit("A").nodes[0].local_log,
        deployment.unit("A").nodes[1].local_log,
    )
    for value in ("a", "b", "c", "d"):
        full.append(RECORD_LOG_COMMIT, value)
    for value in ("a", "b", "c", "EVIL"):
        truncated.append(RECORD_LOG_COMMIT, value)
    truncated.truncate_before(3)
    assert "log-fork" in invariants_of(
        check_local_log_agreement(deployment)
    )


def test_folded_receptions_do_not_read_as_chain_gaps(sim):
    deployment = build_pair(sim)
    log_a = deployment.unit("A").nodes[0].local_log
    node_b = deployment.unit("B").nodes[0]
    first = log_a.append(
        RECORD_COMMUNICATION, "m1", meta={"destination": "B"}
    )
    second = log_a.append(
        RECORD_COMMUNICATION, "m2", meta={"destination": "B"}
    )
    apply_committed(
        node_b, RECORD_RECEIVED, _sealed("A", "B", first.position, None)
    )
    apply_committed(
        node_b, RECORD_RECEIVED,
        _sealed("A", "B", second.position, first.position),
    )
    assert check_transmission_chains(deployment) == []
    # Receiver folds both receptions through a committed truncation; the
    # source folds the first comm record. Neither side may now read as a
    # gap or a forgery.
    apply_committed(
        node_b, RECORD_TRUNCATE, node_b.local_log.next_position,
        meta={"checkpoint_seq": 1},
    )
    assert node_b.local_log.base_position == 3
    log_a.truncate_before(first.position + 1)
    assert check_transmission_chains(deployment) == []
    assert check_at_most_once(deployment) == []


def test_real_gap_behind_the_source_fold_is_still_a_gap(sim):
    deployment = build_pair(sim)
    log_a = deployment.unit("A").nodes[0].local_log
    log_a.append(RECORD_COMMUNICATION, "m1", meta={"destination": "B"})
    second = log_a.append(
        RECORD_COMMUNICATION, "m2", meta={"destination": "B"}
    )
    # B received nothing at all; both records retained at the source.
    violations = check_transmission_chains(deployment)
    assert invariants_of(violations).count("chain-gap") == 1
    assert second is not None


def test_snapshot_certificates_clean_on_honest_run(sim):
    from repro.chaos.invariants import check_snapshot_certificates
    from repro.core import BlockplaneConfig
    from repro.pbft.config import PBFTConfig
    from tests.conftest import build_single_dc

    deployment = build_single_dc(
        sim,
        config=BlockplaneConfig(
            f_independent=1,
            pbft=PBFTConfig(checkpoint_interval=2, gc_executed_log=True),
        ),
    )
    api = deployment.api("DC")

    def work():
        for index in range(6):
            yield api.log_commit(f"v{index}")

    sim.run_until_resolved(sim.spawn(work()), max_events=5_000_000)
    sim.run(until=sim.now + 200.0)
    nodes = deployment.unit("DC").nodes
    assert all(node.stable_certificate is not None for node in nodes)
    assert check_snapshot_certificates(deployment) == []


def test_snapshot_payload_certificate_mismatch_detected(sim):
    import dataclasses

    from repro.chaos.invariants import check_snapshot_certificates
    from repro.core import BlockplaneConfig
    from repro.pbft.config import PBFTConfig
    from tests.conftest import build_single_dc

    deployment = build_single_dc(
        sim,
        config=BlockplaneConfig(
            f_independent=1,
            pbft=PBFTConfig(checkpoint_interval=2, gc_executed_log=True),
        ),
    )
    api = deployment.api("DC")

    def work():
        for index in range(6):
            yield api.log_commit(f"v{index}")

    sim.run_until_resolved(sim.spawn(work()), max_events=5_000_000)
    sim.run(until=sim.now + 200.0)
    node = deployment.unit("DC").nodes[0]
    node.engine._stable_snapshot_payload = dataclasses.replace(
        node.engine._stable_snapshot_payload, entry_chain="forged"
    )
    violations = check_snapshot_certificates(deployment)
    assert invariants_of(violations) == ["snapshot-divergence"]


def test_recovery_from_snapshot_flags_nodes_without_installs(sim):
    from repro.chaos.invariants import check_recovery_from_snapshot

    deployment = build_pair(sim)
    node = deployment.unit("A").nodes[0]
    violations = check_recovery_from_snapshot(deployment, [node.node_id])
    assert invariants_of(violations) == ["recovery-from-snapshot"]
    node.engine.snapshot_installs = 1
    assert check_recovery_from_snapshot(deployment, [node.node_id]) == []
    # Unknown ids are ignored (the plan may name a node that was
    # removed by shrinking).
    assert check_recovery_from_snapshot(deployment, ["ghost"]) == []
