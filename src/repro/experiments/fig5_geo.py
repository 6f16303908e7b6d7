"""Figure 5 — committing with geo-correlated fault tolerance.

Four datacenters, fi = 1, fg swept over 1..3. Each commit at the
labelled datacenter must gather mirror proofs from its ``fg`` closest
peers (in parallel), so the latency tracks the RTT to the fg-th closest
datacenter — the paper's headline observations:

* raising fg always raises latency, but by topology-dependent amounts
  (California: +176 % from fg 1→2; Virginia: only +13 %);
* at fg = 2 everybody lands in the 64–80 ms band except Ireland
  (~135 ms); at fg = 3 everybody is ≥135 ms except Virginia (~80 ms).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core import BlockplaneConfig
from repro.experiments.fig4_local_commit import log_commit_latency
from repro.experiments.report import fmt_ms, format_table
from repro.sim.topology import AWS_SITES, aws_four_dc_topology

DEFAULT_FG_LEVELS = (1, 2, 3)

#: Approximate values read off the paper's Figure 5 (ms).
PAPER_FIG5 = {
    "C": {1: 23, 2: 64, 3: 134},
    "O": {1: 23, 2: 80, 3: 135},
    "V": {1: 64, 2: 73, 3: 80},
    "I": {1: 73, 2: 135, 3: 137},
}


def run_one(
    site: str,
    f_geo: int,
    measured: int = 100,
    warmup: int = 10,
    seed: int = 0,
    obs=None,
) -> float:
    """Mean commit latency (ms) at ``site`` with the given fg."""
    return log_commit_latency(
        aws_four_dc_topology(),
        site,
        BlockplaneConfig(f_independent=1, f_geo=f_geo),
        1000,
        measured,
        warmup,
        seed,
        obs,
    )["latency_ms"]


def run(
    sites: Sequence[str] = AWS_SITES,
    fg_levels: Sequence[int] = DEFAULT_FG_LEVELS,
    measured: int = 100,
    warmup: int = 10,
    seed: int = 0,
    obs=None,
) -> Dict[str, Dict[int, float]]:
    """Full sweep; returns site → fg → latency ms."""
    return {
        site: {
            fg: run_one(
                site, fg, measured=measured, warmup=warmup, seed=seed,
                obs=obs,
            )
            for fg in fg_levels
        }
        for site in sites
    }


def main(
    measured: int = 50, warmup: int = 5, obs=None
) -> Dict[str, Dict[int, float]]:
    """Print Figure 5 (smaller run by default)."""
    results = run(measured=measured, warmup=warmup, obs=obs)
    rows = []
    for site, by_fg in results.items():
        for fg, latency in by_fg.items():
            rows.append(
                [
                    f"{site}({fg})",
                    fmt_ms(latency),
                    str(PAPER_FIG5.get(site, {}).get(fg, "-")),
                ]
            )
    print("Figure 5 — geo-correlated fault tolerance (fi=1)")
    print(format_table(["scenario", "latency ms", "paper ms"], rows))
    return results


if __name__ == "__main__":
    main()
