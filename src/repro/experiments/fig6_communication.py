"""Figure 6 — communication performance between participants.

For each of the six datacenter pairs, one participant ``send``s a
message, the other ``receive``s it and acknowledges back through its
own ``send``; the reported latency is the full send → receive → ack
round trip at the source.

Paper's observations: the latency tracks the pair's RTT, with the local
commits at both ends adding 1–7 % overhead — except California–Oregon,
whose 19 ms RTT is small enough that the fixed intra-datacenter cost
shows up as ~23 %.
"""

from __future__ import annotations

import itertools
from typing import Dict, Sequence, Tuple

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.experiments.report import fmt_ms, format_table
from repro.sim.simulator import Simulator
from repro.sim.topology import AWS_SITES, aws_four_dc_topology
from repro.workloads.runner import mean, timed

#: Values read off the paper's Figure 6 (ms).
PAPER_FIG6 = {
    ("C", "O"): 23.4,
    ("C", "V"): 65.0,
    ("C", "I"): 137.0,
    ("O", "V"): 82.0,
    ("O", "I"): 139.0,
    ("V", "I"): 74.0,
}


def run_pair(
    source: str,
    destination: str,
    rounds: int = 20,
    warmup: int = 2,
    seed: int = 0,
    obs=None,
) -> float:
    """Mean send→receive→ack latency (ms) for one ordered pair."""
    sim = Simulator(seed=seed)
    deployment = BlockplaneDeployment(
        sim, aws_four_dc_topology(), BlockplaneConfig(f_independent=1),
        obs=obs,
    )
    api_src = deployment.api(source)
    api_dst = deployment.api(destination)

    def echo_server():
        while True:
            message = yield api_dst.receive(source)
            yield api_dst.send(("ack", message), to=source, payload_bytes=1000)

    def ping(index):
        yield api_src.send(f"ping-{index}", to=destination, payload_bytes=1000)
        yield api_src.receive(destination)

    sim.spawn(echo_server())
    return mean(timed(sim, ping, rounds + warmup, warmup))


def run(
    pairs: Sequence[Tuple[str, str]] = tuple(
        itertools.combinations(AWS_SITES, 2)
    ),
    rounds: int = 20,
    warmup: int = 2,
    seed: int = 0,
    obs=None,
) -> Dict[Tuple[str, str], float]:
    """All six pairs; returns (a, b) → round-trip latency ms."""
    return {
        pair: run_pair(*pair, rounds=rounds, warmup=warmup, seed=seed, obs=obs)
        for pair in pairs
    }


def main(rounds: int = 10, obs=None) -> Dict[Tuple[str, str], float]:
    """Print Figure 6."""
    topology = aws_four_dc_topology()
    results = run(rounds=rounds, obs=obs)
    rows = []
    for (a, b), latency in results.items():
        rtt = topology.rtt_ms(a, b)
        overhead = (latency - rtt) / rtt * 100.0
        rows.append(
            [
                f"{a}{b}",
                fmt_ms(latency),
                str(PAPER_FIG6.get((a, b), "-")),
                f"{rtt:.0f}",
                f"{overhead:.0f}%",
            ]
        )
    print("Figure 6 — send→receive→ack latency per datacenter pair")
    print(
        format_table(
            ["pair", "latency ms", "paper ms", "RTT ms", "overhead"], rows
        )
    )
    return results


if __name__ == "__main__":
    main()
