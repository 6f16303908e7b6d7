"""Table II — local commitment while varying the number of nodes.

One datacenter, 100 KB batches (the paper's best balance point), unit
size swept over 4/7/10/13 nodes (fi = 1..4). The paper reports
throughput dropping 83 → 51 → 28 → 25 MB/s and latency rising
1.2 → 1.9 → 3.5 → 4 ms: pre-prepare has to push the batch to ``3·fi``
replicas through one NIC, so resilience costs bandwidth.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments import fig4_local_commit
from repro.experiments.report import fmt_mb_s, fmt_ms, format_table
from repro.pbft.quorums import max_faulty, unit_size

#: fi values corresponding to the paper's 4/7/10/13-node columns.
DEFAULT_F_VALUES = (1, 2, 3, 4)

#: Paper's Table II: nodes → (throughput MB/s, latency ms).
PAPER_TABLE2 = {4: (83.0, 1.2), 7: (51.0, 1.9), 10: (28.0, 3.5), 13: (25.0, 4.0)}

BATCH_BYTES = 100_000


def run_one(
    f_independent: int,
    measured: int = 1000,
    warmup: int = 100,
    seed: int = 0,
    obs=None,
) -> Dict[str, float]:
    """Measure local commitment for one fault-tolerance level."""
    metrics = fig4_local_commit.run_one(
        BATCH_BYTES,
        measured=measured,
        warmup=warmup,
        f_independent=f_independent,
        seed=seed,
        obs=obs,
    )
    return {"nodes": unit_size(f_independent), **metrics}


def run(
    f_values: Sequence[int] = DEFAULT_F_VALUES,
    measured: int = 1000,
    warmup: int = 100,
    seed: int = 0,
    obs=None,
) -> Dict[int, Dict[str, float]]:
    """Sweep fi; returns node count → metrics."""
    results = {}
    for f_independent in f_values:
        metrics = run_one(
            f_independent, measured=measured, warmup=warmup, seed=seed,
            obs=obs,
        )
        results[int(metrics["nodes"])] = metrics
    return results


def main(
    measured: int = 200, warmup: int = 20, obs=None
) -> Dict[int, Dict[str, float]]:
    """Print Table II (smaller run by default)."""
    results = run(measured=measured, warmup=warmup, obs=obs)
    rows = []
    for nodes, metrics in results.items():
        paper_throughput, paper_latency = PAPER_TABLE2.get(nodes, (None, None))
        rows.append(
            [
                f"{nodes} (fi={max_faulty(nodes)})",
                fmt_mb_s(metrics["throughput_mb_s"]),
                f"{paper_throughput:.0f}" if paper_throughput else "-",
                fmt_ms(metrics["latency_ms"]),
                f"{paper_latency:.1f}" if paper_latency else "-",
            ]
        )
    print("Table II — local commitment vs number of nodes (100 KB batches)")
    print(
        format_table(
            ["nodes", "MB/s", "paper MB/s", "latency ms", "paper ms"], rows
        )
    )
    return results


if __name__ == "__main__":
    main()
