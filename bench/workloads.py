"""The six seeded workloads and what one repeat of each measures.

Everything here drives the repo through its public entry points only
(``BlockplaneDeployment``, ``BlockplaneAPI.log_commit/send/receive``,
``OpenLoopWorkload``/``open_loop_process``, ``FaultInjector``,
``BlockplanePaxosParticipant``, ``Observability``, ``NetworkOptions``)
and measures from outside: wrappers around the commit function and the
``receive()`` loop take the virtual timestamps, a sampler process reads
the public retention counters, and the caller times ``run_once`` with
the host clock.

One repeat = one fresh ``Simulator(seed)``; everything a repeat *does*
is a pure function of ``(workload, seed, scale)`` — only host
nanoseconds differ between repeats.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apps.bp_paxos import BlockplanePaxosParticipant, PaxosVerification
from repro.chaos.invariants import (
    check_at_most_once,
    check_local_log_agreement,
    check_transmission_chains,
)
from repro.core.codec import clear_wire_memos
from repro.core.config import BlockplaneConfig
from repro.core.middleware import BlockplaneDeployment
from repro.crypto.digest import clear_digest_cache, digest_cache_stats
from repro.obs.hub import Observability
from repro.pbft.config import PBFTConfig
from repro.sim.faults import FaultInjector
from repro.sim.network import NetworkOptions
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology, symmetric_topology
from repro.workloads.openloop import OpenLoopWorkload, open_loop_process

#: Client deadline: an op that takes longer than this from its due time
#: counts as failed even if it eventually commits.
DEADLINE_VMS = 3_000.0
#: The paper's Figure 7 Blockplane-Paxos latency with the leader in V.
PAPER_FIG7_V_MS = 79.0

_CHECKPOINT_INTERVAL = 64
_MAX_IN_FLIGHT = 256
_RTT_MS = 40.0
_SAMPLE_MS = 200.0
_RETRY_AFTER_MS = 2.0
_SETTLE_POLL_MS = 5.0
#: The simulation is advanced, and its host time recorded, in slices of
#: this much virtual time (see ``run.undisturbed_wall_s``).
SLICE_VMS = 50.0


@dataclasses.dataclass(frozen=True)
class Spec:
    """Frozen shape of one workload (sizes are part of the benchmark:
    change them and every recorded number is void)."""

    name: str
    why: str
    sites: Tuple[str, ...]
    fi: int
    ops_per_site: int
    rate_per_s: float = 0.0
    payload_bytes: int = 96
    #: every Nth op is a cross-site ``send`` (1 = all, 0 = none).
    send_every: int = 0
    burst_every: int = 250
    burst_size: int = 50
    obs: bool = False
    wire_fidelity: bool = False
    #: (node index, down_at, up_at): crash window, in virtual ms, of one
    #: node of the first site's unit (index 0 is the gateway and the
    #: view-0 PBFT leader).
    fault: Optional[Tuple[int, float, float]] = None
    retry_budget: int = 5_000
    paxos: bool = False
    #: Listed in BENCHMARK.json and held to its bounds by the driver.
    #: An ungated workload records a known finding: the system does not
    #: (yet) pass its output checks on it.
    gated: bool = True


WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "unit_f2",
            "single-unit baseline: one participant, fi=2 (7 replicas), 1000 "
            "x 96 B log_commit at 800 ops/s; only pbft+sim work, O(n^2) "
            "message term largest here",
            sites=("A",), fi=2, ops_per_site=1_000, rate_per_s=800.0,
        ),
        Spec(
            "wan_mixed",
            "headline soak shape: 3 sites x 500 ops at 400 ops/s/site, fi=1, "
            "every 5th op a cross-site send, observability off; control for "
            "wan_mixed_obs",
            sites=("A", "B", "C"), fi=1, ops_per_site=500, rate_per_s=400.0,
            send_every=5,
        ),
        Spec(
            "wan_mixed_obs",
            "byte-identical traffic to wan_mixed with metrics, sampled "
            "tracing and the forensics journal on; the commits_per_s gap "
            "to wan_mixed is the telemetry cost",
            sites=("A", "B", "C"), fi=1, ops_per_site=500, rate_per_s=400.0,
            send_every=5, obs=True,
        ),
        Spec(
            "wan_payload",
            "3 sites x 120 sends of 4096 B at 200 ops/s/site with "
            "wire_fidelity on: the only workload where the codec runs and "
            "where digests, proofs and daemon shipping dominate",
            sites=("A", "B", "C"), fi=1, ops_per_site=120, rate_per_s=200.0,
            payload_bytes=4_096, send_every=1, burst_every=60, burst_size=12,
            wire_fidelity=True,
        ),
        Spec(
            "paxos_aws",
            "closed loop, one client: Blockplane-Paxos on the paper's 4-DC "
            "RTT matrix, leader V, 80 replicate rounds of ~1000 B; "
            "sequential and WAN-bound, compared with Fig. 7's 79 ms",
            sites=("C", "O", "V", "I"), fi=1, ops_per_site=80, paxos=True,
            payload_bytes=1_000,
        ),
        Spec(
            "fault_backup_crash",
            "wan_mixed traffic at 100 ops/s/site x 700 ops with backup A-1 "
            "down from 2000 to 5000 vms; arrivals keep coming while it "
            "rejoins by certified snapshot state transfer",
            sites=("A", "B", "C"), fi=1, ops_per_site=700, rate_per_s=100.0,
            send_every=5, fault=(1, 2_000.0, 5_000.0), retry_budget=50,
        ),
        Spec(
            "fault_leader_crash",
            "same traffic with A-0, site A's gateway and PBFT leader, down "
            "from 2000 to 5000 vms: view change, outage and recovery under "
            "load; ungated, the system loses ops here today",
            sites=("A", "B", "C"), fi=1, ops_per_site=700, rate_per_s=100.0,
            send_every=5, fault=(0, 2_000.0, 5_000.0), retry_budget=50,
            gated=False,
        ),
    )
}


# ----------------------------------------------------------------------
# Small statistics helpers (nearest-rank percentiles over exact values)
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; ``values`` must be non-empty."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def _ok_block(ok: int, offered: int, out: Dict[str, Any]) -> None:
    """``failed_frac`` as the issue defines it, and its complement
    ``ok_frac`` (the driver needs a metric that is never 0)."""
    out["failed_frac"] = {"value": (offered - ok) / offered, "n": offered}
    out["ok_frac"] = {"value": ok / offered, "n": offered}


def _pct_block(values: List[float], name: str, out: Dict[str, Any]) -> None:
    """Record p50/p99 of ``values`` (with their sample count) under
    ``<name>_p50_vms`` / ``<name>_p99_vms``; nothing when empty."""
    if not values:
        return
    out[f"{name}_p50_vms"] = {"value": percentile(values, 50), "n": len(values)}
    out[f"{name}_p99_vms"] = {"value": percentile(values, 99), "n": len(values)}


# ----------------------------------------------------------------------
# One repeat
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RunResult:
    """What one repeat produced. ``exact`` and ``counters`` are pure
    functions of the seed; ``setup_s``/``wall_s``/``cpu_s`` are host time."""

    setup_s: float
    wall_s: float
    #: Host time of each ``SLICE_VMS`` slice of the simulation, in order
    #: (sums to ``wall_s``).
    slice_s: List[float]
    cpu_s: float
    ops: int
    offered: int
    failed: int
    exact: Dict[str, Any]
    counters: Dict[str, Any]
    violations: List[str]
    schedule_digest: str


class _SiteLedger:
    """Outside timestamps for one site's offered ops."""

    def __init__(self) -> None:
        self.due: Dict[int, float] = {}
        self.admitted: Dict[int, float] = {}
        self.done: Dict[int, float] = {}
        self.sent_to: Dict[int, str] = {}
        self.committed_sends = 0
        self.delivered: Dict[int, List[float]] = {}


def _open_loop_commit(sim, api, site: str, others: List[str], send_every: int,
                      ledger: _SiteLedger) -> Callable[[str, int], Any]:
    """Commit function for ``open_loop_process`` that also keeps the
    ledger. The op kind is keyed off the arrival index in the payload
    header, so a retry of a shed arrival re-submits the same kind; the
    size charged to the network is keyed off the op's (seeded) key, so
    ops are 3/4 to 5/4 of the nominal size rather than all alike."""
    due, admitted, done = ledger.due, ledger.admitted, ledger.done

    def commit(value: str, payload_bytes: int):
        _op, index, _client, key, _filler = value.split(":", 4)
        index = int(index)
        payload_bytes = (
            3 * payload_bytes // 4 + int(key[1:]) % (payload_bytes // 2))
        if index not in due:
            due[index] = sim.now  # first offer == scheduled arrival
        if send_every and others and index % send_every == 0:
            target = others[(index // send_every) % len(others)]
            future = api.send(
                f"{site}:{value}", to=target, payload_bytes=payload_bytes
            )
            ledger.sent_to[index] = target
        else:
            future = api.log_commit(value, payload_bytes=payload_bytes)
        admitted[index] = sim.now

        def _settled(completed) -> None:
            if completed.exception is None:
                done[index] = sim.now
                if index in ledger.sent_to:
                    ledger.committed_sends += 1

        future.add_done_callback(_settled)
        return future

    return commit


def _receiver(api, ledgers: Dict[str, _SiteLedger], sim):
    """Infinite process: the destination's application reading its
    inbox through ``api.receive()``."""
    while True:
        message = yield api.receive()
        source, _op, index, _rest = message.split(":", 3)
        ledgers[source].delivered.setdefault(int(index), []).append(sim.now)


def _retention_sampler(sim, deployment, high: Dict[str, int]):
    """Infinite process: high-water of the public retention counters."""
    while True:
        _sample_retention(deployment, high)
        yield sim.sleep(_SAMPLE_MS)


def _sample_retention(deployment, high: Dict[str, int]) -> None:
    for node in deployment.all_nodes():
        slots = len(node.slots)
        retained = (
            node.local_log.retained_count + slots + len(node.executed_entries)
        )
        if retained > high["retained"]:
            high["retained"] = retained
        if slots > high["slots"]:
            high["slots"] = slots


def _build(spec: Spec, seed: int):
    """Fresh simulator + deployment for one repeat."""
    clear_digest_cache()
    clear_wire_memos()
    sim = Simulator(seed=seed)
    obs = None
    if spec.obs:
        obs = Observability(
            enabled=True, tracing=True, forensics=True, trace_sample_every=16
        )
    if spec.paxos:
        topology = aws_four_dc_topology()
    else:
        topology = symmetric_topology(spec.sites, _RTT_MS)
    deployment = BlockplaneDeployment(
        sim,
        topology,
        BlockplaneConfig(
            f_independent=spec.fi,
            f_geo=0,
            pbft=PBFTConfig(
                checkpoint_interval=_CHECKPOINT_INTERVAL, gc_executed_log=True
            ),
            admission_max_in_flight=_MAX_IN_FLIGHT,
        ),
        routines_factory=(
            (lambda _name: PaxosVerification()) if spec.paxos else None
        ),
        network_options=NetworkOptions(wire_fidelity=spec.wire_fidelity),
        obs=obs,
    )
    return sim, deployment, obs


def run_once(
    spec: Spec,
    seed: int,
    scale: int = 1,
    tap: Optional[Any] = None,
    around_run: Optional[Callable[[Callable[[], None]], None]] = None,
) -> RunResult:
    """One repeat of ``spec`` at ``ops_per_site // scale``.

    ``tap`` (a :class:`layers.MessageTap`) is attached to the network
    as a never-dropping drop filter; ``around_run`` wraps the simulation
    phase (the traced run passes the profiler here, so set-up and
    output checks stay unprofiled).
    """
    gc.collect()  # every repeat starts from the same collector state
    t0 = time.perf_counter()
    per_site = max(spec.ops_per_site // scale, 8)
    sim, deployment, obs = _build(spec, seed)
    if tap is not None:
        tap.attach(deployment.network)
    if spec.paxos:
        body, finish, schedule = _prepare_paxos(spec, seed, per_site, sim, deployment)
    else:
        body, finish, schedule = _prepare_open_loop(
            spec, seed, per_site, sim, deployment
        )
    schedule_digest = hashlib.sha256(repr(schedule).encode()).hexdigest()[:16]
    high = {"retained": 0, "slots": 0}
    sim.spawn(_retention_sampler(sim, deployment, high))
    cache_before = digest_cache_stats()
    t1 = time.perf_counter()
    c1 = time.process_time()
    marks = [t1]

    def after_slice() -> None:
        marks.append(time.perf_counter())

    if around_run is None:
        body(after_slice)
    else:
        around_run(lambda: body(after_slice))
    t2 = time.perf_counter()
    c2 = time.process_time()
    marks.append(t2)
    _sample_retention(deployment, high)
    ops, offered, failed, exact = finish()
    violations = [
        str(violation)
        for check in (
            check_local_log_agreement,
            check_transmission_chains,
            check_at_most_once,
        )
        for violation in check(deployment)
    ]
    counters = _public_counters(
        sim, deployment, obs, high, cache_before, max(ops, 1)
    )
    return RunResult(
        setup_s=t1 - t0,
        wall_s=t2 - t1,
        slice_s=[after - before for before, after in zip(marks, marks[1:])],
        cpu_s=c2 - c1,
        ops=ops,
        offered=offered,
        failed=failed,
        exact=exact,
        counters=counters,
        violations=violations,
        schedule_digest=schedule_digest,
    )


# ----------------------------------------------------------------------
# Open-loop workloads
# ----------------------------------------------------------------------
def _prepare_open_loop(spec: Spec, seed: int, per_site: int, sim, deployment):
    sites = list(spec.sites)
    ledgers = {site: _SiteLedger() for site in sites}
    stats: Dict[str, Dict[str, Any]] = {}
    drivers = []
    schedule: List[float] = []
    horizon_ms = 0.0
    for site_index, site in enumerate(sites):
        workload = OpenLoopWorkload(
            rate_per_s=spec.rate_per_s,
            total=per_site,
            batch_bytes=spec.payload_bytes,
            seed=seed * 8_191 + site_index,
            burst_every=spec.burst_every,
            burst_size=spec.burst_size,
            clients=8,
            hot_fraction=0.2,
        )
        gaps = list(workload.gaps_ms())
        schedule.extend(gaps)
        horizon_ms = max(horizon_ms, sum(gaps))
        site_stats = {
            "offered": 0, "admitted": 0, "shed": 0, "committed": 0,
            "failed": 0, "dropped": 0, "duration_ms": 0.0,
        }
        stats[site] = site_stats
        api = deployment.api(site)
        others = [other for other in sites if other != site]
        commit = _open_loop_commit(
            sim, api, site, others, spec.send_every, ledgers[site])
        drivers.append((commit, workload, site_stats))
        if spec.send_every and others:
            sim.spawn(_receiver(api, ledgers, sim))
    if spec.fault is not None:
        node_index, down_at, up_at = spec.fault
        FaultInjector(sim, deployment.network).crash_cycle(
            deployment.unit(sites[0]).nodes[node_index], down_at, up_at
        )
    # Hard virtual-time ceiling: the schedule, the fault window, every
    # op's deadline, and a settle margin. Hitting it is not an error —
    # whatever has not settled by then is counted as failed.
    ceiling_ms = horizon_ms + 2.0 * DEADLINE_VMS
    if spec.fault is not None:
        ceiling_ms += spec.fault[2]

    def all_delivered() -> bool:
        return sum(len(ledger.delivered) for ledger in ledgers.values()) >= (
            sum(ledger.committed_sends for ledger in ledgers.values()))

    def body(after_slice: Callable[[], None]) -> None:
        processes = [
            sim.spawn(open_loop_process(
                sim, commit, workload, site_stats,
                _RETRY_AFTER_MS, spec.retry_budget, _SETTLE_POLL_MS))
            for commit, workload, site_stats in drivers
        ]
        while sim.now < ceiling_ms:
            sim.run(until=min(sim.now + SLICE_VMS, ceiling_ms))
            after_slice()
            if all(p.resolved for p in processes) and all_delivered():
                break

    def finish():
        return _fold_open_loop(spec, sites, per_site, stats, ledgers, sim)

    return body, finish, schedule


def _fold_open_loop(spec, sites, per_site, stats, ledgers, sim):
    offered = per_site * len(sites)
    commit_lat: List[float] = []
    visible_lat: List[float] = []
    deliver_lat: List[float] = []
    ship_lat: List[float] = []
    admission_wait: List[float] = []
    ok = 0
    duplicates = 0
    faulted_done: List[float] = []
    for site in sites:
        ledger = ledgers[site]
        for index, due in ledger.due.items():
            if index in ledger.admitted:
                admission_wait.append(ledger.admitted[index] - due)
            done_at = ledger.done.get(index)
            if done_at is None:
                continue
            latency = done_at - due
            commit_lat.append(latency)
            if index in ledger.sent_to:
                arrivals = ledger.delivered.get(index)
                if not arrivals:
                    continue  # committed but never delivered: failed
                duplicates += len(arrivals) - 1
                latency = arrivals[0] - due
                deliver_lat.append(latency)
                ship_lat.append(arrivals[0] - done_at)
            visible_lat.append(latency)
            if latency <= DEADLINE_VMS:
                ok += 1
            if site == sites[0]:
                faulted_done.append(done_at)
    exact: Dict[str, Any] = {}
    _pct_block(commit_lat, "commit", exact)
    _pct_block(visible_lat, "e2e", exact)
    _pct_block(deliver_lat, "deliver", exact)
    _ok_block(ok, offered, exact)
    if spec.fault is not None:
        unanswered = len(faulted_done) < per_site
        exact["pbft.outage_vms"] = {
            "value": _longest_gap(
                faulted_done, spec.fault[1], sim.now if unanswered else None),
            "n": len(faulted_done),
        }
    if admission_wait:
        exact["workloads.admission_wait_p99_vms"] = {
            "value": percentile(admission_wait, 99), "n": len(admission_wait),
        }
    if ship_lat:
        exact["daemon.ship_p50_vms"] = {
            "value": percentile(ship_lat, 50), "n": len(ship_lat)}
        exact["daemon.ship_p99_vms"] = {
            "value": percentile(ship_lat, 99), "n": len(ship_lat)}
    exact["duplicate_deliveries"] = {"value": duplicates, "n": len(deliver_lat)}
    exact["unsettled"] = {
        "value": offered - sum(
            s["committed"] + s["failed"] + s["dropped"] for s in stats.values()
        ),
        "n": offered,
    }
    committed = len(commit_lat)
    return committed, offered, offered - ok, exact


def _longest_gap(
    done_times: List[float], start: float, end: Optional[float]
) -> float:
    """Longest interval without a completed op at the faulted site from
    the fault's start on. ``end`` (the end of the run) closes the last
    interval only when some op there was never answered — otherwise the
    idle time after the last arrival would read as an outage."""
    marks = sorted(t for t in done_times if t >= start)
    if end is not None:
        marks.append(end)
    longest = 0.0
    previous = start
    for mark in marks:
        longest = max(longest, mark - previous)
        previous = mark
    return longest


# ----------------------------------------------------------------------
# Closed-loop Blockplane-Paxos
# ----------------------------------------------------------------------
def _prepare_paxos(spec: Spec, seed: int, rounds: int, sim, deployment):
    sites = list(spec.sites)
    participants = {
        site: BlockplanePaxosParticipant(deployment.api(site), sites)
        for site in sites
    }
    for participant in participants.values():
        participant.start()
    leader = participants["V"]
    rng = random.Random((seed << 32) ^ rounds)
    half = spec.payload_bytes // 2
    # (value, payload_bytes) per round: sizes vary +-50% around the
    # nominal batch so the seed shapes the inputs.
    schedule = [
        (f"value-{index}-{rng.randrange(1 << 30)}",
         rng.randrange(half, spec.payload_bytes + half + 1))
        for index in range(rounds)
    ]
    latencies: List[float] = []
    slots: List[Any] = []

    def client():
        elected = yield sim.spawn(leader.leader_election())
        if not elected:
            return
        for value, payload_bytes in schedule:
            started = sim.now
            slot = yield sim.spawn(leader.replicate(value, payload_bytes))
            slots.append(slot)
            latencies.append(sim.now - started)

    ceiling_ms = rounds * DEADLINE_VMS

    def body(after_slice: Callable[[], None]) -> None:
        process = sim.spawn(client())
        while not process.resolved and sim.now < ceiling_ms:
            sim.run(until=sim.now + SLICE_VMS)
            after_slice()
        # Let followers finish applying the last round.
        sim.run(until=sim.now + 500.0)

    def finish():
        ok = sum(
            1 for slot, latency, (value, _bytes) in zip(slots, latencies, schedule)
            if slot is not None and latency <= DEADLINE_VMS
            and leader.chosen.get(slot) == value
        )
        exact: Dict[str, Any] = {}
        _pct_block(latencies, "commit", exact)
        _pct_block(latencies, "e2e", exact)
        _ok_block(ok, rounds, exact)
        exact["unsettled"] = {"value": rounds - len(slots), "n": rounds}
        exact["duplicate_deliveries"] = {"value": 0, "n": 0}
        if latencies:
            exact["apps.paxos_round_vs_paper"] = {
                "value": percentile(latencies, 50) / PAPER_FIG7_V_MS,
                "n": len(latencies),
            }
        return len(latencies), rounds, rounds - ok, exact

    return body, finish, schedule


# ----------------------------------------------------------------------
# Public counters, read after the run
# ----------------------------------------------------------------------
def _public_counters(sim, deployment, obs, high, cache_before, ops: int):
    network = deployment.network
    nodes = deployment.all_nodes()
    cache = digest_cache_stats()
    hits = cache["hits"] - cache_before["hits"]
    misses = cache["misses"] - cache_before["misses"]
    frames = network.wire_transcodes
    counters = {
        "sim.events": sim.events_processed,
        "sim.events_per_op": sim.events_processed / ops,
        "sim.timers_cancelled_per_op": sim.events_cancelled / ops,
        "sim.heap_compactions": sim.compactions,
        "sim.virtual_ms": sim.now,
        "net.msgs": network.messages_sent,
        "net.msgs_per_op": network.messages_sent / ops,
        "net.bytes_per_op": network.bytes_sent / ops,
        "net.undelivered_msgs": (
            network.messages_sent - network.messages_delivered
        ),
        "codec.frames_per_op": frames / ops,
        "codec.bytes_per_frame": network.wire_bytes / frames if frames else 0.0,
        "crypto.digest_misses_per_op": misses / ops,
        "crypto.digest_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0
        ),
        "pbft.view_changes": max(node.view for node in nodes),
        "pbft.stable_checkpoint_min": min(
            node.stable_checkpoint for node in nodes
        ),
        "pbft.slots_high_water": high["slots"],
        "pbft.snapshot_installs": sum(node.snapshot_installs for node in nodes),
        "core.log_entries_per_op": sum(
            len(unit.gateway_node().local_log)
            for unit in deployment.units.values()
        ) / ops,
        "core.retained_high_water": high["retained"],
        "core.truncated_entries": sum(
            node.local_log.base_position - 1 for node in nodes
        ),
        "core.admission_shed_per_op": sum(
            deployment.api(name).shed_total for name in deployment.participants
        ) / ops,
        "obs.journal_events_per_op": (
            obs.journal.recorded / ops if obs is not None else 0.0
        ),
        "obs.spans_per_op": (
            (len(obs.spans) + obs.spans.dropped) / ops
            if obs is not None else 0.0
        ),
        "obs.dropped": (
            obs.journal.dropped + obs.spans.dropped if obs is not None else 0
        ),
    }
    return counters
