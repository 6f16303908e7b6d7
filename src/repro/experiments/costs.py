"""Section VI-D quantified: performance and monetary costs.

The paper discusses byzantization costs qualitatively — extra nodes,
extra communication, wide-area traffic. This driver measures them: for
the same logical workload (N replicated values, leader in California),
it counts nodes, messages, and bytes for each system, separating local
from wide-area traffic (the quantity that dominates a cloud bill).
"""

from __future__ import annotations

from typing import Dict

from repro.baselines import FlatPaxosDeployment, FlatPBFTDeployment
from repro.experiments.fig7_consensus import blockplane_paxos_leader
from repro.experiments.report import format_table
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology
from repro.workloads.runner import timed

BATCH_BYTES = 1000


class _TrafficMeter:
    """Counts messages/bytes by locality via a tamper hook."""

    def __init__(self, network):
        self.network = network
        self.local_messages = 0
        self.wan_messages = 0
        self.local_bytes = 0
        self.wan_bytes = 0
        network.add_tamper_hook(self._observe)

    def _observe(self, src, dst, message):
        size = message.size_bytes() + self.network.options.per_message_overhead_bytes
        if self.network.node(src).site == self.network.node(dst).site:
            self.local_messages += 1
            self.local_bytes += size
        else:
            self.wan_messages += 1
            self.wan_bytes += size
        return message

    def per_op(self, operations: int) -> Dict[str, float]:
        return {
            "local_msgs_per_op": self.local_messages / operations,
            "wan_msgs_per_op": self.wan_messages / operations,
            "local_kb_per_op": self.local_bytes / operations / 1000.0,
            "wan_kb_per_op": self.wan_bytes / operations / 1000.0,
        }


def run(operations: int = 10, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Measure per-operation costs for the three consensus systems.

    Returns:
        system → {nodes, local/wan messages and KB per op}.
    """
    results: Dict[str, Dict[str, float]] = {}

    # --- flat Paxos (the benign floor: 4 nodes total) -----------------
    sim = Simulator(seed=seed)
    paxos = FlatPaxosDeployment(sim, aws_four_dc_topology(), "C")
    sim.run_until_resolved(paxos.elect_leader())
    meter = _TrafficMeter(paxos.network)
    timed(
        sim,
        lambda index: paxos.replicate(f"v{index}", payload_bytes=BATCH_BYTES),
        operations,
    )
    results["paxos"] = {"nodes": 4.0, **meter.per_op(operations)}

    # --- flat PBFT (4 wide-area nodes) ---------------------------------
    sim = Simulator(seed=seed)
    pbft = FlatPBFTDeployment(sim, aws_four_dc_topology(), "C")
    meter = _TrafficMeter(pbft.network)
    timed(
        sim,
        lambda index: pbft.commit(f"v{index}", payload_bytes=BATCH_BYTES),
        operations,
    )
    results["pbft"] = {"nodes": 4.0, **meter.per_op(operations)}

    # --- Blockplane-Paxos (16 nodes; extra local, minimal wide-area) ---
    deployment, replicate = blockplane_paxos_leader("C", seed)
    meter = _TrafficMeter(deployment.network)
    timed(
        deployment.sim,
        lambda index: replicate(f"v{index}", BATCH_BYTES),
        operations,
    )
    results["blockplane-paxos"] = {
        "nodes": float(len(deployment.all_nodes())),
        **meter.per_op(operations),
    }
    return results


def main(operations: int = 10) -> Dict[str, Dict[str, float]]:
    """Print the Section VI-D cost table."""
    results = run(operations=operations)
    rows = []
    for system, metrics in results.items():
        rows.append(
            [
                system,
                f"{metrics['nodes']:.0f}",
                f"{metrics['local_msgs_per_op']:.0f}",
                f"{metrics['wan_msgs_per_op']:.1f}",
                f"{metrics['local_kb_per_op']:.1f}",
                f"{metrics['wan_kb_per_op']:.1f}",
            ]
        )
    print("Section VI-D — per-operation resource costs (leader C)")
    print(
        format_table(
            [
                "system",
                "nodes",
                "local msgs/op",
                "WAN msgs/op",
                "local KB/op",
                "WAN KB/op",
            ],
            rows,
        )
    )
    return results


if __name__ == "__main__":
    main()
