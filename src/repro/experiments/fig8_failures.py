"""Figure 8 — reacting to failures (fi = fg = 1).

Two timelines over a primary participant committing batches with
geo-correlated tolerance:

* **(a) backup failure** — primary California, its active proof-granting
  backup is Oregon (closest). After batch 45 Oregon's datacenter is
  shut down: one batch pays the detection timeout, then commits settle
  at Virginia's distance (60–80 ms instead of 20–40 ms).
* **(b) primary failure** — California itself dies after batch 70;
  Virginia (next in the replication set) suspects the silence, takes
  over as primary, and serves batches 71–160 at its own replication
  distance, with transition spikes of a few hundred ms around the
  takeover.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.experiments.report import format_table
from repro.sim.process import any_of
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology

#: Replication sets for the Figure 8 scenarios: California primary,
#: Virginia the designated successor (as in the paper's narrative),
#: Oregon the closest proof-granting backup.
FIG8_REPLICATION_SETS = {
    "C": ["C", "V", "O"],
    "V": ["C", "V", "O"],
    "O": ["C", "V", "O"],
    "I": ["I", "V", "C"],
}

BATCH_BYTES = 1000


def _build(
    seed: int, geo_suspicion_ttl_ms: float = 5_000.0
) -> BlockplaneDeployment:
    sim = Simulator(seed=seed)
    deployment = BlockplaneDeployment(
        sim,
        aws_four_dc_topology(),
        BlockplaneConfig(
            f_independent=1,
            f_geo=1,
            geo_suspicion_ttl_ms=geo_suspicion_ttl_ms,
        ),
        replication_sets=FIG8_REPLICATION_SETS,
    )
    return deployment


def run_backup_failure(
    batches: int = 100, fail_at: int = 45, seed: int = 9
) -> Dict[str, object]:
    """Scenario (a): kill the Oregon backup mid-run.

    Returns:
        Dict with ``latencies`` (per-batch ms, 1-indexed by position in
        the list), ``fail_at``, and steady-state means before/after.
    """
    deployment = _build(seed)
    sim = deployment.sim
    api = deployment.api("C")
    latencies: List[float] = []

    def driver():
        for index in range(batches):
            if index == fail_at:
                deployment.unit("O").crash()
            start = sim.now
            yield api.log_commit(f"batch-{index}", payload_bytes=BATCH_BYTES)
            latencies.append(sim.now - start)

    sim.run_until_resolved(sim.spawn(driver()), max_events=200_000_000)
    before = latencies[5:fail_at]
    after = latencies[fail_at + 2 :]
    return {
        "latencies": latencies,
        "fail_at": fail_at,
        "steady_before_ms": sum(before) / len(before),
        "steady_after_ms": sum(after) / len(after),
    }


def run_primary_failure(
    batches: int = 160,
    fail_at: int = 70,
    seed: int = 9,
    retry_timeout_ms: float = 250.0,
) -> Dict[str, object]:
    """Scenario (b): kill the California primary mid-run.

    The driver plays the role of the application clients: it issues
    each batch to whoever it currently believes is the primary, retries
    on silence, and follows take-over announcements.
    """
    deployment = _build(seed)
    sim = deployment.sim
    latencies: List[float] = []
    state = {"primary": "C"}
    for site in ("C", "V", "O"):
        geo = deployment.unit(site).geo
        geo.on_primary_change.append(
            lambda primary, _epoch: state.__setitem__("primary", primary)
        )

    def driver():
        for index in range(batches):
            if index == fail_at:
                deployment.unit("C").crash()
            start = sim.now
            while True:
                primary = state["primary"]
                try:
                    commit = deployment.api(primary).log_commit(
                        f"batch-{index}", payload_bytes=BATCH_BYTES
                    )
                    which, _ = yield any_of(
                        sim, [commit, sim.sleep(retry_timeout_ms)]
                    )
                except Exception:
                    # The believed primary is entirely dead; wait for a
                    # take-over announcement and retry.
                    yield sim.sleep(50.0)
                    continue
                if which == 0:
                    break
            latencies.append(sim.now - start)

    sim.run_until_resolved(sim.spawn(driver()), max_events=400_000_000)
    before = latencies[5:fail_at]
    tail = latencies[fail_at + 5 :]
    return {
        "latencies": latencies,
        "fail_at": fail_at,
        "steady_before_ms": sum(before) / len(before),
        "steady_after_ms": sum(tail) / len(tail),
        "final_primary": state["primary"],
        "transition_peak_ms": max(latencies[fail_at : fail_at + 5]),
    }


def run_backup_recovery(
    batches: int = 120,
    fail_at: int = 40,
    recover_at: int = 80,
    seed: int = 9,
) -> Dict[str, object]:
    """Extension beyond the paper's Figure 8: the failed backup comes
    back. Commits should return to the close-backup latency once the
    suspicion TTL lapses and Oregon answers mirror requests again."""
    deployment = _build(seed, geo_suspicion_ttl_ms=500.0)
    sim = deployment.sim
    api = deployment.api("C")
    latencies: List[float] = []

    def driver():
        for index in range(batches):
            if index == fail_at:
                deployment.unit("O").crash()
            if index == recover_at:
                deployment.unit("O").recover()
            start = sim.now
            yield api.log_commit(f"batch-{index}", payload_bytes=BATCH_BYTES)
            latencies.append(sim.now - start)

    sim.run_until_resolved(sim.spawn(driver()), max_events=400_000_000)
    tail = latencies[-15:]
    return {
        "latencies": latencies,
        "fail_at": fail_at,
        "recover_at": recover_at,
        "steady_before_ms": sum(latencies[5:fail_at])
        / len(latencies[5:fail_at]),
        "steady_during_ms": sum(latencies[fail_at + 2 : recover_at])
        / len(latencies[fail_at + 2 : recover_at]),
        "steady_recovered_ms": sum(tail) / len(tail),
    }


def main(
    backup_batches: int = 100, primary_batches: int = 160
) -> Dict[str, Dict[str, object]]:
    """Print Figure 8's two timelines (summarized)."""
    a = run_backup_failure(batches=backup_batches)
    b = run_primary_failure(batches=primary_batches)
    print("Figure 8(a) — backup failure (kill Oregon at batch "
          f"{a['fail_at']})")
    print(
        format_table(
            ["phase", "latency ms", "paper ms"],
            [
                ["before failure", f"{a['steady_before_ms']:.1f}", "20-40"],
                ["after failure", f"{a['steady_after_ms']:.1f}", "60-80"],
            ],
        )
    )
    print()
    print("Figure 8(b) — primary failure (kill California at batch "
          f"{b['fail_at']}; {b['final_primary']} takes over)")
    print(
        format_table(
            ["phase", "latency ms", "paper ms"],
            [
                ["before failure", f"{b['steady_before_ms']:.1f}", "20-40"],
                ["transition peak", f"{b['transition_peak_ms']:.1f}", "~250"],
                ["after take-over", f"{b['steady_after_ms']:.1f}", "60-80"],
            ],
        )
    )
    return {"backup_failure": a, "primary_failure": b}


if __name__ == "__main__":
    main()
