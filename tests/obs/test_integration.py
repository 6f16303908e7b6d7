"""Integration: obs on/off equivalence and the end-to-end commit trace.

Instrumentation is passive — it must not change what the simulation
does, only record it. These tests run the same workloads with and
without an :class:`Observability` hub and require bit-identical
results, then check that a traced cross-DC commit produces the full
span tree the tentpole promises.
"""

import json

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.core.messages import TransmissionMessage
from repro.experiments import fig4_local_commit
from repro.obs import Observability
from repro.obs.demo import trace_commit_lifecycle
from repro.obs.exporters import to_chrome_trace
from repro.obs.hub import DISABLED
from repro.pbft.config import PBFTConfig
from repro.sim.faults import FaultInjector
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology
from tests.conftest import build_pair, force_view_change


# ----------------------------------------------------------------------
# Passive-instrumentation equivalence
# ----------------------------------------------------------------------
def test_fig4_results_identical_with_obs_on_and_off():
    baseline = fig4_local_commit.run_one(
        100_000, measured=20, warmup=2, seed=3
    )
    observed = fig4_local_commit.run_one(
        100_000, measured=20, warmup=2, seed=3,
        obs=Observability(enabled=True, histogram_window_ms=1000.0),
    )
    assert observed == baseline  # bit-identical latency and throughput


def test_metrics_agree_with_workload_counts():
    obs = Observability(enabled=True)
    fig4_local_commit.run_one(1_000, measured=15, warmup=5, seed=0, obs=obs)
    commits = obs.counter("bp_commits_total", participant="V",
                          record_type="log-commit")
    assert commits.value == 20.0  # warmup + measured, all at V
    latency = obs.histogram("commit_latency_ms", participant="V")
    assert latency.count == 20
    assert latency.min > 0.0
    # Log appends count per replica: 20 commits x 4 nodes (fi=1).
    appends = obs.counter("log_appends_total", participant="V",
                          record_type="log-commit")
    assert appends.value == 80.0
    assert obs.gauge("log_length", participant="V").value >= 20.0
    # Intra-DC traffic shows up on the V->V link.
    assert obs.counter("net_bytes_total", link="V->V").value > 0.0


def test_disabled_obs_records_nothing_during_run():
    obs = Observability(enabled=False)
    fig4_local_commit.run_one(1_000, measured=5, warmup=1, seed=0, obs=obs)
    assert len(obs.registry) == 0
    assert len(obs.spans) == 0


def test_obs_off_deployment_never_writes_to_the_shared_noop_hub(sim):
    # Every instrumentation site has one sink behind one guard; a site
    # that lost its ``obs.enabled``/``obs.forensics`` check would leak
    # into the hub all obs-off deployments share.
    config = BlockplaneConfig(
        f_independent=1,
        reserve_poll_interval_ms=60_000.0,
        reserve_gap_threshold=100,
    )
    deployment = build_pair(sim, config=config)
    assert deployment.obs is DISABLED
    unit_a = deployment.unit("A")
    FaultInjector(sim, deployment.network).tamper_matching(
        lambda src, dst, msg: isinstance(msg, TransmissionMessage),
        lambda _msg: None,
        start=0.0,
        end=250.0,
    )
    sim.run_until_resolved(deployment.api("A").send("retried", to="B"))
    backup = unit_a.nodes[1]
    backup.crash()
    sim.run_until_resolved(deployment.api("A").log_commit("while-down"))
    backup.recover()
    force_view_change(unit_a)
    sim.run_until_resolved(
        deployment.api("A").send("new-view", to="B"), max_events=20_000_000
    )
    sim.run(until=sim.now + 2_000.0)
    log_b = deployment.unit("B").gateway_node().local_log
    assert [e.value.record.message for e in log_b] == ["retried", "new-view"]
    assert min(node.view for node in unit_a.nodes) >= 1
    assert len(DISABLED.registry) == 0
    assert DISABLED.journal.recorded == 0
    assert len(DISABLED.spans) == 0


# ----------------------------------------------------------------------
# End-to-end cross-DC commit trace
# ----------------------------------------------------------------------
def test_lifecycle_trace_covers_full_commit_path():
    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)

    assert all(span.end_ms is not None for span in obs.spans)  # all closed

    # The send commit's trace reaches from the API call at C through the
    # WAN hop to the reception apply at V.
    (wan,) = [span for span in obs.spans if span.name == "wan.transmit"]
    assert wan.participant == "C"
    assert wan.args["destination"] == "V"
    tree = [span for span in obs.spans if span.trace_id == wan.trace_id]
    names = {span.name for span in tree}
    assert names >= {
        "commit", "pbft.consensus", "pbft.pre_prepare", "pbft.prepare",
        "pbft.verify", "pbft.commit", "log.apply", "daemon.ship",
        "sign.collect", "wan.transmit", "receive.apply",
    }

    # Every non-root span links to a recorded parent in the same trace.
    by_id = {span.span_id: span for span in tree}
    roots = [span for span in tree if span.parent_id is None]
    assert [span.name for span in roots] == ["commit"]
    for span in tree:
        if span.parent_id is not None:
            assert by_id[span.parent_id].trace_id == span.trace_id

    # Causality: ship starts no earlier than the local apply, the WAN
    # hop spans a real wide-area latency, and the destination's apply
    # happens after the hop completes.
    (ship,) = [s for s in tree if s.name == "daemon.ship"]
    (apply_c,) = [s for s in tree if s.name == "log.apply"]
    (apply_v,) = [s for s in tree if s.name == "receive.apply"]
    assert apply_c.participant == "C"
    assert apply_v.participant == "V"
    assert ship.start_ms >= apply_c.end_ms
    assert wan.end_ms - wan.start_ms > 10.0  # C<->V is a ~30 ms WAN link
    assert apply_v.start_ms >= wan.end_ms

    # Both sides recorded PBFT phase latencies and the WAN byte flow.
    for participant in ("C", "V"):
        hist = obs.histogram(
            "pbft_prepared_to_committed_ms", participant=participant
        )
        assert hist.count > 0
    assert obs.counter("bp_transmissions_total", source="C",
                       destination="V").value >= 1.0
    # Each of V's 4 replicas applies the reception once.
    assert obs.counter("bp_receptions_total", participant="V",
                       source="C").value == 4.0
    assert obs.counter("net_bytes_total", link="C->V").value > 0.0


def test_lifecycle_chrome_trace_exports_cleanly():
    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)
    trace = json.loads(json.dumps(to_chrome_trace(obs)))
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in spans} >= {"commit", "wan.transmit"}
    participants = {
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert participants >= {"C", "V"}


# ----------------------------------------------------------------------
# Golden flight-recorder journal for the canonical lifecycle
# ----------------------------------------------------------------------
def test_lifecycle_journal_matches_golden_fixture():
    obs = Observability(enabled=True)
    trace_commit_lifecycle(obs)

    journal = obs.journal
    assert journal.dropped == 0
    assert journal.recorded == len(journal) == 140
    kinds = {}
    for event in journal:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    # The exact event census of the canonical demo: two 4-node units
    # (2 deploys), a local commit + a send at C and the reception at V
    # (4 slots x 4 replicas = 16 pre-prepares / appends, 4 slots x
    # 4 voters x 2 phases x 3 recipients = 96 votes), one shipment
    # signed by f+1=2 extra collectors + gateway, verified at 2 of V's
    # replicas before the proof cache short-circuits the rest.
    assert kinds == {
        "deploy.unit": 2,
        "pbft.pre_prepare": 16,
        "pbft.vote": 96,
        "log.append": 16,
        "sign.response": 3,
        "daemon.ship": 1,
        "proof.verified": 2,
        "chain.advance": 4,
    }

    # The send is one causal story: the C-side communication appends,
    # the ship intent, V's proof verification, and V's reception
    # applies all share the ship's trace id.
    (ship,) = [e for e in journal if e.kind == "daemon.ship"]
    assert ship.participant == "C" and ship.args["destination"] == "V"
    trace_id = ship.trace[0]
    appends = [e for e in journal if e.kind == "log.append"]
    comm_appends = [e for e in appends
                    if e.args.get("record_type") == "communication"]
    received_appends = [e for e in appends
                        if e.args.get("record_type") == "received"]
    assert len(comm_appends) == len(received_appends) == 4
    for event in comm_appends + received_appends:
        assert event.trace is not None
        assert event.trace[0] == trace_id
    for event in journal:
        if event.kind == "proof.verified":
            assert event.trace[0] == trace_id

    # The journal serializes cleanly alongside the other artifacts.
    from repro.obs.exporters import journal_snapshot

    decoded = json.loads(json.dumps(journal_snapshot(obs)))
    assert decoded["recorded"] == decoded["retained"] == 140
    assert len(decoded["events"]) == 140


# ----------------------------------------------------------------------
# Cached metric handles and bounded correlation state on a mixed soak
# ----------------------------------------------------------------------
_SITES = ("A", "B", "C")


def _mixed_soak(obs, rounds, ops_per_round=20):
    """3 sites, fi=1, checkpoint + truncate every 4 slots; per round
    every site commits ``ops_per_round`` ops, every 5th a send to the
    next site (drained by a receiver there). Yields after each round."""
    sim = Simulator(seed=5)
    deployment = BlockplaneDeployment(
        sim,
        symmetric_topology(_SITES, 40.0),
        BlockplaneConfig(
            f_independent=1,
            pbft=PBFTConfig(checkpoint_interval=4, gc_executed_log=True),
        ),
        obs=obs,
    )

    def receiver(api):
        while True:
            yield api.receive()

    def client(index, api, start):
        target = _SITES[(index + 1) % len(_SITES)]
        for op in range(start, start + ops_per_round):
            if op % 5 == 0:
                yield api.send(f"m{op}", to=target, payload_bytes=96)
            else:
                yield api.log_commit(f"v{op}", payload_bytes=96)

    for site in _SITES:
        sim.spawn(receiver(deployment.api(site)))
    for round_index in range(rounds):
        clients = [
            sim.spawn(client(i, deployment.api(site),
                             round_index * ops_per_round))
            for i, site in enumerate(_SITES)
        ]
        for process in clients:
            sim.run_until_resolved(process, max_events=10_000_000)
        sim.run(until=sim.now + 500.0)  # deliveries, acks, truncation
        yield deployment


def test_metric_totals_match_the_workloads_own_counts():
    obs = Observability(enabled=True)
    (deployment,) = _mixed_soak(obs, rounds=1)
    ops = 20 * len(_SITES)
    counters = obs.registry.counters()

    def total(name):
        return sum(c.value for c in counters if c.name == name)

    network = deployment.network
    assert total("net_messages_total") == network.messages_sent
    assert total("net_bytes_total") == network.bytes_sent
    assert total("bp_commits_total") == ops
    sends = sum(
        c.value for c in counters
        if c.name == "bp_commits_total"
        and ("record_type", "communication") in c.labels
    )
    assert sends == 4 * len(_SITES)
    latency = [
        h for h in obs.registry.histograms() if h.name == "commit_latency_ms"
    ]
    assert sorted(h.count for h in latency) == [20, 20, 20]


def test_traced_soak_keeps_correlation_state_bounded():
    obs = Observability(enabled=True, trace_sample_every=1)
    for deployment in _mixed_soak(obs, rounds=4):
        # The entry-trace map tracks the logs' retained window instead
        # of growing with the run, and landed WAN hops are gone.
        window = sum(
            max(node.local_log.retained_count
                for node in deployment.unit(site).nodes)
            for site in _SITES
        )
        assert obs.correlations_retained <= window
    # Every commit was traced and every log folded most of its history.
    assert len([s for s in obs.spans if s.name == "commit"]) == 240
    assert window < 240 / 2


def test_unreceived_wan_spans_are_capped_at_max_spans():
    obs = Observability(enabled=True, max_spans=4)
    for position in range(10):
        obs.begin_wan_span("C", "V", position, None)
    assert obs.correlations_retained == 4
    # The survivors are the newest; an evicted hop closes as a no-op.
    assert obs.end_wan_span("C", "V", 9) is not None
    assert obs.end_wan_span("C", "V", 0) is None
