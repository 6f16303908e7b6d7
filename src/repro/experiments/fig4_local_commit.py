"""Figure 4 — local commitment performance vs batch size.

A single datacenter, one Blockplane unit of 4 nodes (fi = 1), no
wide-area communication. The driver sweeps the batch size from 1 KB to
2000 KB and reports the latency of ``log-commit`` and the resulting
group-commit throughput.

Paper's observations to reproduce:

* latency stays around a millisecond up to 100 KB, then grows with the
  batch size (4.5 ms at 1000 KB, 8.2 ms at 2000 KB — NIC pressure);
* throughput rises steeply at small sizes (~60x from 1 KB to 100 KB),
  then plateaus (only ~10 % more from 1000 KB to 2000 KB).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.experiments.report import fmt_mb_s, fmt_ms, format_table
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology, single_dc_topology
from repro.workloads.generator import BatchWorkload
from repro.workloads.runner import sequential_commit_latency

#: Batch sizes the paper sweeps (bytes).
DEFAULT_BATCH_SIZES = (
    1_000,
    10_000,
    100_000,
    500_000,
    1_000_000,
    2_000_000,
)

#: The paper's reported values for reference printing: size → (ms, note)
PAPER_LATENCY_MS = {100_000: 1.2, 1_000_000: 4.5, 2_000_000: 8.2}


def log_commit_latency(
    topology: Topology,
    site: str,
    config: BlockplaneConfig,
    batch_bytes: int,
    measured: int,
    warmup: int,
    seed: int,
    obs=None,
) -> Dict[str, float]:
    """The paper's sequential ``log-commit`` workload at one site of a
    fresh deployment; the single-unit measurement behind Fig. 4,
    Table II and Fig. 5.

    Returns:
        Dict with ``latency_ms`` and ``throughput_mb_s``.
    """
    sim = Simulator(seed=seed)
    deployment = BlockplaneDeployment(sim, topology, config, obs=obs)
    api = deployment.api(site)
    workload = BatchWorkload(
        measured=measured, warmup=warmup, batch_bytes=batch_bytes, seed=seed
    )
    result = sequential_commit_latency(
        sim,
        lambda batch, size: api.log_commit(batch, payload_bytes=size),
        workload,
    )
    return {
        "latency_ms": result["latency_ms"],
        "throughput_mb_s": result["throughput_mb_s"],
    }


def run_one(
    batch_bytes: int,
    measured: int = 1000,
    warmup: int = 100,
    f_independent: int = 1,
    seed: int = 0,
    obs=None,
) -> Dict[str, float]:
    """Measure local commitment for one batch size.

    Returns:
        Dict with ``latency_ms`` and ``throughput_mb_s``.
    """
    return log_commit_latency(
        single_dc_topology("V"),
        "V",
        BlockplaneConfig(f_independent=f_independent),
        batch_bytes,
        measured,
        warmup,
        seed,
        obs,
    )


def run(
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
    measured: int = 1000,
    warmup: int = 100,
    seed: int = 0,
    obs=None,
) -> Dict[int, Dict[str, float]]:
    """Sweep batch sizes; returns size → metrics."""
    return {
        size: run_one(
            size, measured=measured, warmup=warmup, seed=seed, obs=obs
        )
        for size in batch_sizes
    }


def main(
    measured: int = 200, warmup: int = 20, obs=None
) -> Dict[int, Dict[str, float]]:
    """Print Figure 4's two panels (smaller run by default)."""
    results = run(measured=measured, warmup=warmup, obs=obs)
    rows = []
    for size, metrics in results.items():
        paper = PAPER_LATENCY_MS.get(size)
        rows.append(
            [
                f"{size // 1000} KB",
                fmt_ms(metrics["latency_ms"]),
                f"{paper:.1f}" if paper else "-",
                fmt_mb_s(metrics["throughput_mb_s"]),
            ]
        )
    print("Figure 4 — local commitment vs batch size (fi=1, 4 nodes)")
    print(
        format_table(
            ["batch", "latency ms", "paper ms", "throughput MB/s"], rows
        )
    )
    return results


if __name__ == "__main__":
    main()
