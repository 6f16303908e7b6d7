#!/usr/bin/env python3
"""Geo-correlated fault tolerance and datacenter failover (Section V,
Figure 8).

With fg = 1, every commit at the primary (California) gathers a mirror
proof from its closest replication-set peer. The demo then kills whole
datacenters:

1. the active backup (Oregon) — commits transparently fail over to
   Virginia at higher latency;
2. the primary itself — Virginia suspects the silence, takes over, and
   keeps serving.

Run:
    python examples/geo_failover.py
"""

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.sim import Simulator, aws_four_dc_topology
from repro.sim.process import any_of

REPLICATION_SETS = {
    "C": ["C", "V", "O"],
    "V": ["C", "V", "O"],
    "O": ["C", "V", "O"],
    "I": ["I", "V", "C"],
}


def main() -> None:
    sim = Simulator(seed=17)
    deployment = BlockplaneDeployment(
        sim,
        aws_four_dc_topology(),
        BlockplaneConfig(f_independent=1, f_geo=1),
        replication_sets=REPLICATION_SETS,
    )
    state = {"primary": "C"}
    for site in ("C", "V", "O"):
        deployment.unit(site).geo.on_primary_change.append(
            lambda primary, epoch: state.__setitem__("primary", primary)
        )

    def driver():
        for batch in range(30):
            if batch == 10:
                print(f"[{sim.now:8.1f} ms] *** killing the Oregon backup")
                deployment.unit("O").crash()
            if batch == 15:
                print(f"[{sim.now:8.1f} ms] *** Oregon recovers (fg = 1 "
                      "tolerates only one datacenter outage at a time)")
                deployment.unit("O").recover()
            if batch == 20:
                print(f"[{sim.now:8.1f} ms] *** killing the California "
                      "primary")
                deployment.unit("C").crash()
            start = sim.now
            while True:
                primary = state["primary"]
                try:
                    commit = deployment.api(primary).log_commit(
                        f"batch-{batch}", payload_bytes=1000
                    )
                    which, _ = yield any_of(sim, [commit, sim.sleep(400.0)])
                except Exception:
                    yield sim.sleep(50.0)
                    continue
                if which == 0:
                    break
            latency = sim.now - start
            marker = ""
            if batch in (10, 20):
                marker = "   <- failover"
            print(f"  batch {batch:2d} committed at {state['primary']} "
                  f"in {latency:6.1f} ms{marker}")

    process = sim.spawn(driver())
    sim.run(until=120_000.0, max_events=400_000_000)
    assert process.resolved
    print()
    print(f"Final primary: {state['primary']} (started at C)")


if __name__ == "__main__":
    main()
