"""Macro-benchmarks: end-to-end commit throughput.

Both benchmarks drive a 3-site × ``fi = 1`` Blockplane deployment with
a payload-heavy workload (nested tuples large enough that digesting
them costs real time) and report committed operations per wall-second:

* ``macro.commits.3site_f1`` — fault-free, the headline number for the
  cache speedup comparison;
* ``macro.commits.mixed_chaos`` — the same deployment under a seeded
  ``mixed`` chaos profile (site outage, byzantine plant, tamper, loss,
  partitions), proving the caches stay semantically invisible while
  byzantine machinery is actively exercised;
* ``macro.commits.sustained`` — an open-loop soak: ``SUSTAINED_OPS``
  arrivals offered on a Poisson schedule with periodic bursts while
  checkpointing and log truncation garbage-collect state behind the
  load. Reports committed throughput *and* the per-replica retained
  high-water (Local Log entries + PBFT slots + executed entries); the
  run fails if any replica's footprint exceeds
  ``SUSTAINED_RETAINED_BOUND``, so memory boundedness is an enforced
  acceptance criterion, not a printed number.

Everything the simulation *does* is a pure function of the seed — the
operation counts in ``extra`` are identical run-to-run and across the
cache-on / cache-off passes; only wall nanoseconds differ.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Dict, List

from repro.bench.harness import Benchmark
from repro.bench.latency import latency_block
from repro.chaos.generator import ScheduleGenerator
from repro.chaos.runner import byzantine_overrides, schedule_plan_actions
from repro.core.config import BlockplaneConfig
from repro.core.middleware import BlockplaneDeployment
from repro.crypto.digest import digest_cache_stats
from repro.pbft.config import PBFTConfig
from repro.sim.faults import FaultInjector
from repro.sim.process import any_of
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology
from repro.workloads.openloop import OpenLoopWorkload, open_loop_process

if TYPE_CHECKING:
    from repro.core.api import BlockplaneAPI

#: The benchmark deployment: three symmetric sites, 40 ms RTT.
SITES = ("A", "B", "C")
_RTT_MS = 40.0
#: Workload batches per site. Each batch is one wide-area send; every
#: third batch additionally commits a local state entry.
_BATCHES = 10
#: Integers per payload tuple. Sized so one canonical digest of a
#: payload costs real time relative to event dispatch: the control pass
#: re-canonicalizes the same transmission record at every signer and
#: every verifying replica (~6 recomputations per send), which is
#: exactly what the identity memo collapses to one.
_PAYLOAD_INTS = 2_048
_PAYLOAD_BYTES = 1_000
#: Per-attempt commit timeout for the chaos run (virtual ms).
_SEND_TIMEOUT_MS = 4_000.0

#: Total arrivals the sustained open-loop soak offers across all sites.
#: ``python -m repro.bench --sustained-ops N`` overrides this (the CI
#: soak smoke runs ~10k; the published artifact runs the full 100k).
SUSTAINED_OPS = 100_000
#: Per-replica retained-footprint ceiling enforced for the whole run:
#: retained Local Log entries + live PBFT slots + retained executed
#: entries. Without checkpoint GC and log truncation a replica would
#: retain every committed entry (~SUSTAINED_OPS / 3 per site, plus
#: receptions); with them the footprint is a function of the
#: checkpoint interval and the admission window, independent of run
#: length.
SUSTAINED_RETAINED_BOUND = 4_000
#: Offered arrival rate per site (operations per virtual second).
_SUSTAINED_RATE_PER_S = 400.0
#: PBFT checkpoint cadence for the soak (committed slots per unit).
_SUSTAINED_CHECKPOINT_INTERVAL = 64
#: Admission-control window per site gateway (in-flight submissions).
_SUSTAINED_MAX_IN_FLIGHT = 256
#: Retained-footprint sampling cadence (virtual ms).
_SUSTAINED_SAMPLE_MS = 200.0
#: Commit-trace sampling stride for the soak's latency attribution:
#: every 16th commit gets a full span tree (deterministic counter, no
#: randomness), bounding the span log while still decomposing
#: thousands of commits per run.
_SUSTAINED_TRACE_SAMPLE = 16


def workload_ops(sites: int = len(SITES), batches: int = _BATCHES) -> int:
    """Commit operations one run performs (sends + state commits)."""
    state_commits = len(range(0, batches, 3))
    return sites * (batches + state_commits)


def _payload(rng: random.Random, site: str, index: int) -> Any:
    return (
        ("payload", site, index),
        tuple(rng.randrange(1 << 30) for _ in range(_PAYLOAD_INTS)),
    )


def _sender(
    sim: Simulator,
    deployment: BlockplaneDeployment,
    seed: int,
    site: str,
    site_index: int,
    done: List[int],
):
    """Fault-free workload: wait out each commit before the next."""
    rng = random.Random(seed * 7_919 + site_index)
    api = deployment.api(site)
    others = [other for other in SITES if other != site]
    for index in range(_BATCHES):
        if index % 3 == 0:
            yield api.log_commit(
                _payload(rng, site, index), payload_bytes=_PAYLOAD_BYTES
            )
            done[site_index] += 1
        target = others[(index + site_index) % len(others)]
        yield api.send(
            _payload(rng, f"{site}->{target}", index),
            to=target,
            payload_bytes=_PAYLOAD_BYTES,
        )
        done[site_index] += 1
        yield sim.sleep(rng.uniform(5.0, 40.0))


def _hardened_sender(
    sim: Simulator,
    deployment: BlockplaneDeployment,
    seed: int,
    site: str,
    site_index: int,
    done: List[int],
):
    """Chaos workload: every commit retried through faults."""
    rng = random.Random(seed * 7_919 + site_index)
    api = deployment.api(site)
    others = [other for other in SITES if other != site]
    for index in range(_BATCHES):
        if index % 3 == 0:
            yield from _commit_with_retry(
                sim,
                lambda attempt, a=index: api.log_commit(
                    _payload(rng, site, a) + (("try", attempt),),
                    payload_bytes=_PAYLOAD_BYTES,
                ),
            )
            done[site_index] += 1
        target = others[(index + site_index) % len(others)]
        yield from _commit_with_retry(
            sim,
            lambda attempt, a=index, t=target: api.send(
                _payload(rng, f"{site}->{t}", a) + (("try", attempt),),
                to=t,
                payload_bytes=_PAYLOAD_BYTES,
            ),
        )
        done[site_index] += 1
        yield sim.sleep(rng.uniform(10.0, 80.0))


def _commit_with_retry(sim: Simulator, submit):
    """Re-submit on timeout or transient error (gateway down mid-outage);
    a timed-out attempt may still commit later — throughput here counts
    *operations the workload completed*, invariants are chaos's job."""
    attempt = 0
    while True:
        try:
            future = submit(attempt)
            winner, _value = yield any_of(
                sim, [future, sim.sleep(_SEND_TIMEOUT_MS)]
            )
        except Exception:
            attempt += 1
            yield sim.sleep(250.0)
            continue
        if winner == 0:
            return
        attempt += 1
        yield sim.sleep(100.0)


def _run_stats(
    sim: Simulator, deployment, done: List[int], cache_before: Dict[str, int]
) -> Dict[str, Any]:
    stats = digest_cache_stats()
    return {
        "completed_ops": sum(done),
        "virtual_ms": sim.now,
        "events_processed": sim.events_processed,
        "messages_sent": deployment.network.messages_sent,
        "heap_compactions": sim.compactions,
        "digest_cache_hits": stats["hits"] - cache_before["hits"],
        "digest_cache_misses": stats["misses"] - cache_before["misses"],
    }


def _make_chaos_free(seed: int):
    ops = workload_ops()

    def operation():
        cache_before = digest_cache_stats()
        sim = Simulator(seed=seed)
        deployment = BlockplaneDeployment(
            sim,
            symmetric_topology(SITES, _RTT_MS),
            BlockplaneConfig(f_independent=1, f_geo=0),
        )
        done = [0] * len(SITES)
        for site_index, site in enumerate(SITES):
            sim.spawn(
                _sender(sim, deployment, seed, site, site_index, done)
            )
        sim.run(until=10_000.0)
        if sum(done) != ops:
            raise RuntimeError(
                f"fault-free workload incomplete: {sum(done)}/{ops} commits"
            )
        return _run_stats(sim, deployment, done, cache_before)

    return operation, ops


def _make_recorder_on(seed: int):
    """The fault-free workload with the forensics flight recorder on
    (journal + metrics, spans off — the auditing configuration). The
    acceptance bar is ≤10% throughput loss versus
    ``macro.commits.3site_f1``."""
    ops = workload_ops()

    def operation():
        from repro.obs.hub import Observability

        cache_before = digest_cache_stats()
        sim = Simulator(seed=seed)
        obs = Observability(enabled=True, tracing=False)
        obs.bind_clock(sim)
        deployment = BlockplaneDeployment(
            sim,
            symmetric_topology(SITES, _RTT_MS),
            BlockplaneConfig(f_independent=1, f_geo=0),
            obs=obs,
        )
        done = [0] * len(SITES)
        for site_index, site in enumerate(SITES):
            sim.spawn(
                _sender(sim, deployment, seed, site, site_index, done)
            )
        sim.run(until=10_000.0)
        if sum(done) != ops:
            raise RuntimeError(
                f"recorder-on workload incomplete: {sum(done)}/{ops} commits"
            )
        stats = _run_stats(sim, deployment, done, cache_before)
        stats["journal_events"] = obs.journal.recorded
        stats["journal_dropped"] = obs.journal.dropped
        return stats

    return operation, ops


def _make_mixed_chaos(seed: int):
    ops = workload_ops()
    generator = ScheduleGenerator(
        seed,
        profile="mixed",
        sites=SITES,
        batches=_BATCHES,
        horizon_ms=16_000.0,
        settle_ms=6_000.0,
    )
    plan = generator.generate(0)

    def operation():
        cache_before = digest_cache_stats()
        sim = Simulator(seed=plan.seed)
        deployment = BlockplaneDeployment(
            sim,
            symmetric_topology(SITES, _RTT_MS),
            BlockplaneConfig(
                f_independent=plan.budget.f_independent,
                f_geo=plan.budget.f_geo,
                reserve_poll_interval_ms=150.0,
                reserve_gap_threshold=0,
            ),
            node_class_overrides=byzantine_overrides(plan) or None,
        )
        injector = FaultInjector(sim, deployment.network)
        schedule_plan_actions(sim, deployment, injector, plan)
        done = [0] * len(SITES)
        for site_index, site in enumerate(SITES):
            sim.spawn(
                _hardened_sender(
                    sim, deployment, plan.seed, site, site_index, done
                )
            )
        sim.run(until=plan.budget.horizon_ms)
        sim.run(until=sim.now + plan.budget.settle_ms)
        if sum(done) != ops:
            raise RuntimeError(
                f"chaos workload incomplete: {sum(done)}/{ops} commits"
            )
        stats = _run_stats(sim, deployment, done, cache_before)
        stats["fault_actions"] = len(plan.actions)
        return stats

    return operation, ops


def _retained_footprint(node) -> int:
    """Entries a replica currently holds in memory for protocol state:
    Local Log (retained, post-truncation), live PBFT slots, and the
    executed-entry replay window."""
    return (
        node.local_log.retained_count
        + len(node.slots)
        + len(node.executed_entries)
    )


def _footprint_sampler(sim: Simulator, deployment, high_water: Dict[str, int]):
    """Infinite process: track each replica's retained high-water."""
    while True:
        for node in deployment.all_nodes():
            footprint = _retained_footprint(node)
            if footprint > high_water.get(node.node_id, 0):
                high_water[node.node_id] = footprint
        yield sim.sleep(_SUSTAINED_SAMPLE_MS)


def _sustained_commit(api: "BlockplaneAPI", others: List[str]):
    """Commit function for the open-loop driver: every fifth operation
    is a wide-area send (exercising transmission/reception records and
    their folding under truncation), the rest are local state commits.
    The mix is keyed off the arrival index baked into the payload
    header, so retries of a shed arrival re-submit the same kind."""

    def commit(value: str, payload_bytes: int):
        index = int(value.split(":", 2)[1])
        if index % 5 == 0:
            target = others[(index // 5) % len(others)]
            return api.send(value, to=target, payload_bytes=payload_bytes)
        return api.log_commit(value, payload_bytes=payload_bytes)

    return commit


def _make_sustained(seed: int):
    total = SUSTAINED_OPS
    per_site = total // len(SITES)
    ops = per_site * len(SITES)

    def operation():
        from repro.obs.hub import Observability

        sim = Simulator(seed=seed)
        # Tracing on with 1-in-N commit sampling: the critical-path
        # engine needs complete span trees, not every tree. The span
        # log is unbounded here so sampled traces can never lose their
        # roots to eviction mid-run (the sample stride is what bounds
        # volume); forensics stays off — this benchmark measures the
        # data plane plus tracing, not the flight recorder.
        obs = Observability(
            enabled=True,
            tracing=True,
            forensics=False,
            max_spans=None,
            trace_sample_every=_SUSTAINED_TRACE_SAMPLE,
        )
        obs.bind_clock(sim)
        deployment = BlockplaneDeployment(
            sim,
            symmetric_topology(SITES, _RTT_MS),
            BlockplaneConfig(
                f_independent=1,
                f_geo=0,
                pbft=PBFTConfig(
                    checkpoint_interval=_SUSTAINED_CHECKPOINT_INTERVAL,
                    gc_executed_log=True,
                ),
                admission_max_in_flight=_SUSTAINED_MAX_IN_FLIGHT,
            ),
            obs=obs,
        )
        high_water: Dict[str, int] = {}
        sim.spawn(_footprint_sampler(sim, deployment, high_water))
        site_stats: Dict[str, Dict[str, Any]] = {}
        drivers = []
        for site_index, site in enumerate(SITES):
            others = [other for other in SITES if other != site]
            stats: Dict[str, Any] = {
                "offered": 0, "admitted": 0, "shed": 0,
                "committed": 0, "failed": 0, "dropped": 0,
                "duration_ms": 0.0,
            }
            site_stats[site] = stats
            workload = OpenLoopWorkload(
                rate_per_s=_SUSTAINED_RATE_PER_S,
                total=per_site,
                batch_bytes=96,
                seed=seed * 8_191 + site_index,
                burst_every=500,
                burst_size=50,
                clients=8,
                hot_fraction=0.2,
            )
            drivers.append(
                sim.spawn(
                    open_loop_process(
                        sim,
                        _sustained_commit(deployment.api(site), others),
                        workload,
                        stats,
                        retry_after_ms=2.0,
                        retry_budget=5_000,
                        settle_poll_ms=5.0,
                    )
                )
            )
        # Generous ceiling: 5x the nominal schedule length plus a
        # minute of settle. Hitting it means the system stopped
        # draining — fail loudly rather than spin.
        ceiling_ms = 5.0 * per_site * 1_000.0 / _SUSTAINED_RATE_PER_S
        ceiling_ms += 60_000.0
        while not all(driver.resolved for driver in drivers):
            if sim.now >= ceiling_ms:
                raise RuntimeError(
                    "sustained workload failed to settle by "
                    f"{ceiling_ms:.0f} virtual ms"
                )
            sim.run(until=sim.now + 1_000.0)
        # One final sample so the post-settle footprint is included.
        for node in deployment.all_nodes():
            footprint = _retained_footprint(node)
            if footprint > high_water.get(node.node_id, 0):
                high_water[node.node_id] = footprint
        committed = sum(s["committed"] for s in site_stats.values())
        if committed != ops:
            raise RuntimeError(
                f"sustained workload incomplete: {committed}/{ops} commits"
            )
        worst = max(high_water.values())
        if worst > SUSTAINED_RETAINED_BOUND:
            raise RuntimeError(
                f"retained high-water {worst} exceeds bound "
                f"{SUSTAINED_RETAINED_BOUND}: memory is not GC-bounded "
                "under sustained load"
            )
        # The hub's cross-component correlation maps are pruned as logs
        # truncate and WAN hops land; they must not outgrow the replicas.
        if obs.correlations_retained > SUSTAINED_RETAINED_BOUND:
            raise RuntimeError(
                f"obs holds {obs.correlations_retained} entry traces / "
                f"open WAN spans, over the {SUSTAINED_RETAINED_BOUND} "
                "bound: tracing state is not truncation-bounded"
            )
        duration_ms = max(s["duration_ms"] for s in site_stats.values())
        # Fold the sampled span trees into the schema-v4 latency block.
        # Conservation is an enforced acceptance criterion: the fold
        # raises if any decomposed commit's segments fail to sum to its
        # end-to-end latency or too much of it stays unattributed.
        latency = latency_block(obs, _SUSTAINED_TRACE_SAMPLE)
        return {
            "completed_ops": committed,
            "latency": latency,
            "spans_recorded": len(obs.spans),
            "virtual_ms": sim.now,
            "events_processed": sim.events_processed,
            "messages_sent": deployment.network.messages_sent,
            "offered": sum(s["offered"] for s in site_stats.values()),
            "shed": sum(s["shed"] for s in site_stats.values()),
            "dropped": sum(s["dropped"] for s in site_stats.values()),
            "virtual_throughput_ops_s": (
                1_000.0 * committed / duration_ms if duration_ms else 0.0
            ),
            "retained_high_water": worst,
            "retained_high_water_by_node": dict(sorted(high_water.items())),
            "retained_bound": SUSTAINED_RETAINED_BOUND,
            "heap_compactions": sim.compactions,
            "timers_cancelled": sim.events_cancelled,
            "log_truncations": sum(
                node.local_log.base_position - 1
                for node in deployment.all_nodes()
            ),
            "snapshot_installs": sum(
                node.snapshot_installs for node in deployment.all_nodes()
            ),
            "stable_checkpoints": sum(
                node.stable_checkpoint for node in deployment.all_nodes()
            ),
        }

    return operation, ops


#: The registered macro suite.
BENCHMARKS = [
    Benchmark("macro.commits.3site_f1", "macro", _make_chaos_free),
    Benchmark("macro.commits.recorder_on", "macro", _make_recorder_on),
    Benchmark("macro.commits.mixed_chaos", "macro", _make_mixed_chaos),
    Benchmark("macro.commits.sustained", "macro", _make_sustained),
]
