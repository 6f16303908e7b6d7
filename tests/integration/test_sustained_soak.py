"""Sustained open-loop soak: state stays bounded behind the load.

Three sites take Poisson arrivals with bursts (every fifth op a
cross-site send) while checkpointing, log truncation and the admission
window garbage-collect behind them. What a replica retains must depend
on the checkpoint interval and the admission window, not on how long
the run is.
"""

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.obs import critpath
from repro.obs.hub import Observability
from repro.pbft.config import PBFTConfig
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology
from repro.workloads.openloop import OpenLoopWorkload, open_loop_process

SITES = ("A", "B", "C")
OPS_PER_SITE = 1_000
#: Per-replica retained entries (Local Log + PBFT slots + executed
#: log). A checkpointing run peaks near 200 at 900 ops and at 3,000;
#: without checkpoints a replica keeps every entry it ever executed.
RETAINED_BOUND = 400
#: Per-replica reception votes held. A vote is forgotten once its
#: position is delivered, so only in-flight receptions hold one; a vote
#: map that is never pruned holds every reception (~200 here).
VOTES_BOUND = 32
#: Per-replica signature collections and per-daemon shipped positions.
#: Both forget what a truncation folds, so they follow the log window
#: (a peak near 15 here); kept forever they grow with every send
#: (~200 collections, ~100 positions).
SENDING_BOUND = 32


def _retained(node) -> int:
    return (
        node.local_log.retained_count
        + len(node.slots)
        + len(node.executed_entries)
    )


def _votes(node) -> int:
    return sum(len(state.voted) for state in node.receptions.values())


def _sending(node) -> int:
    return max(
        [len(node._sign_collectors)]
        + [len(daemon.shipped) for daemon in node.comm_daemons]
    )


def _commit_fn(api, others):
    def commit(value: str, payload_bytes: int):
        index = int(value.split(":", 2)[1])
        if index % 5 == 0:
            target = others[(index // 5) % len(others)]
            return api.send(value, to=target, payload_bytes=payload_bytes)
        return api.log_commit(value, payload_bytes=payload_bytes)

    return commit


def _soak(checkpoint_interval: int, obs: Observability):
    """Run the soak; returns (sim, per-site stats, retained high-water,
    votes high-water, sending-side high-water)."""
    sim = Simulator(seed=11)
    obs.bind_clock(sim)
    deployment = BlockplaneDeployment(
        sim,
        symmetric_topology(SITES, 40.0),
        BlockplaneConfig(
            f_independent=1,
            pbft=PBFTConfig(
                checkpoint_interval=checkpoint_interval, gc_executed_log=True
            ),
            admission_max_in_flight=256,
        ),
        obs=obs,
    )
    high_water = votes_high_water = sending_high_water = 0

    def sample():
        nonlocal high_water, votes_high_water, sending_high_water
        nodes = deployment.all_nodes()
        high_water = max(high_water, *map(_retained, nodes))
        votes_high_water = max(votes_high_water, *map(_votes, nodes))
        sending_high_water = max(sending_high_water, *map(_sending, nodes))

    def sampler():
        while True:
            sample()
            yield sim.sleep(200.0)

    sim.spawn(sampler())
    stats, drivers = [], []
    for index, site in enumerate(SITES):
        stats.append(dict.fromkeys(
            ("offered", "admitted", "shed", "committed", "failed", "dropped"), 0
        ))
        workload = OpenLoopWorkload(
            rate_per_s=400.0, total=OPS_PER_SITE, batch_bytes=96,
            seed=11 * 8_191 + index, burst_every=500, burst_size=50,
            clients=8, hot_fraction=0.2,
        )
        commit = _commit_fn(
            deployment.api(site), [other for other in SITES if other != site]
        )
        drivers.append(sim.spawn(open_loop_process(
            sim, commit, workload, stats[-1],
            retry_after_ms=2.0, retry_budget=5_000, settle_poll_ms=5.0,
        )))
    while not all(driver.resolved for driver in drivers):
        assert sim.now < 60_000.0, "soak stopped draining"
        sim.run(until=sim.now + 1_000.0)
    sample()
    return sim, stats, high_water, votes_high_water, sending_high_water


def test_soak_commits_everything_in_bounded_state():
    obs = Observability(
        enabled=True, tracing=True, forensics=False, max_spans=None,
        trace_sample_every=16,
    )
    sim, stats, high_water, votes_high_water, sending_high_water = _soak(
        checkpoint_interval=64, obs=obs
    )
    for site_stats in stats:
        assert site_stats["offered"] == OPS_PER_SITE
        assert site_stats["committed"] == OPS_PER_SITE
        assert site_stats["failed"] == site_stats["dropped"] == 0
    assert high_water <= RETAINED_BOUND
    assert votes_high_water <= VOTES_BOUND
    assert sending_high_water <= SENDING_BOUND
    # The hub's entry-trace / open-WAN-span maps are pruned as logs
    # truncate and hops land; they must not outgrow the replicas.
    assert obs.correlations_retained <= RETAINED_BOUND
    # Healthy-path timers (request retries, slot watchdogs, ship
    # retransmits) are cancelled when their work completes, and the
    # tombstones reach the compaction sweep under real load.
    assert sim.events_cancelled > 100
    assert sim.compactions > 0
    # Every sampled commit's critical-path segments sum to its
    # end-to-end latency, with almost nothing left unattributed.
    conservation = critpath.attribute_log(obs.spans)["conservation"]
    assert conservation["checked_ops"] >= 3 * OPS_PER_SITE // 16
    assert conservation["ok"], conservation


def test_soak_outgrows_the_bound_without_checkpoints():
    """The bound is a real constraint: the same load with checkpointing
    effectively off retains every entry."""
    _sim, stats, high_water, _votes_high_water, _sending_high_water = _soak(
        checkpoint_interval=10**9, obs=Observability(enabled=False)
    )
    assert all(s["committed"] == OPS_PER_SITE for s in stats)
    assert high_water > RETAINED_BOUND
