"""Figure 7 — global consensus: Blockplane-Paxos vs the baselines.

The paper's headline experiment. For a leader placed in each of the
four datacenters, measure the latency of the Replication phase under
four systems:

* **Paxos** — the benign floor: one RTT to the closest majority.
* **Blockplane-Paxos** — Paxos byzantized through the middleware;
  pays extra *local* commits (0–33 % in the paper) but keeps Paxos's
  single wide-area round.
* **Hierarchical PBFT** — the ablation without API separation; lands
  between Paxos and Blockplane-Paxos.
* **PBFT** — one replica per datacenter; three wide-area phases make
  it 16–78 % slower than Blockplane-Paxos.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro.apps.bp_paxos import BlockplanePaxosParticipant, PaxosVerification
from repro.baselines import (
    FlatPaxosDeployment,
    FlatPBFTDeployment,
    HierarchicalPBFTDeployment,
)
from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.experiments.report import fmt_ms, format_table
from repro.sim.simulator import Simulator
from repro.sim.topology import AWS_SITES, aws_four_dc_topology
from repro.workloads.runner import timed

SYSTEMS = ("paxos", "blockplane-paxos", "hierarchical-pbft", "pbft")

#: Values read off the paper's Figure 7 (ms), per leader datacenter.
PAPER_FIG7 = {
    "V": {"paxos": 70, "blockplane-paxos": 79, "hierarchical-pbft": 74, "pbft": 146},
    "O": {"paxos": 79, "blockplane-paxos": 88, "hierarchical-pbft": 83, "pbft": 120},
    "C": {"paxos": 61, "blockplane-paxos": 81, "hierarchical-pbft": 68, "pbft": 102},
    "I": {"paxos": 130, "blockplane-paxos": 131, "hierarchical-pbft": 130, "pbft": 157},
}

BATCH_BYTES = 1000


def _measure(sim: Simulator, replicate: Callable, rounds: int) -> float:
    start = sim.now
    timed(sim, lambda index: replicate(f"value-{index}", BATCH_BYTES), rounds)
    return (sim.now - start) / rounds


def run_paxos(leader_site: str, rounds: int = 20, seed: int = 0) -> float:
    """Flat Paxos replication latency with the leader at one site."""
    sim = Simulator(seed=seed)
    deployment = FlatPaxosDeployment(sim, aws_four_dc_topology(), leader_site)
    sim.run_until_resolved(deployment.elect_leader())
    return _measure(sim, deployment.replicate, rounds)


def blockplane_paxos_leader(
    leader_site: str, seed: int = 0, f_independent: int = 1
) -> Tuple[BlockplaneDeployment, Callable]:
    """Deploy Blockplane-Paxos (Algorithm 3 over the API) on the paper's
    four datacenters and elect ``leader_site``.

    Returns:
        The deployment and ``replicate(value, payload_bytes) ->
        Process``, one Replication phase at the elected leader.
    """
    sim = Simulator(seed=seed)
    topology = aws_four_dc_topology()
    deployment = BlockplaneDeployment(
        sim,
        topology,
        BlockplaneConfig(f_independent=f_independent),
        routines_factory=lambda _name: PaxosVerification(),
    )
    participants = {
        site: BlockplanePaxosParticipant(deployment.api(site), topology.site_names)
        for site in topology.site_names
    }
    for participant in participants.values():
        participant.start()
    leader = participants[leader_site]
    sim.run_until_resolved(
        sim.spawn(leader.leader_election()), max_events=100_000_000
    )
    if not leader.l:
        raise RuntimeError(f"leader election failed at {leader_site}")

    def replicate(value, payload_bytes):
        return sim.spawn(leader.replicate(value, payload_bytes))

    return deployment, replicate


def run_blockplane_paxos(
    leader_site: str, rounds: int = 20, seed: int = 0
) -> float:
    """Blockplane-Paxos replication latency (Algorithm 3 over the API)."""
    deployment, replicate = blockplane_paxos_leader(leader_site, seed)
    return _measure(deployment.sim, replicate, rounds)


def run_pbft(leader_site: str, rounds: int = 20, seed: int = 0) -> float:
    """Flat wide-area PBFT commit latency."""
    sim = Simulator(seed=seed)
    deployment = FlatPBFTDeployment(sim, aws_four_dc_topology(), leader_site)

    def commit(value, payload_bytes):
        return deployment.commit(value, payload_bytes)

    return _measure(sim, commit, rounds)


def run_hierarchical_pbft(
    leader_site: str, rounds: int = 20, seed: int = 0
) -> float:
    """Hierarchical PBFT (no API separation) replication latency."""
    sim = Simulator(seed=seed)
    deployment = HierarchicalPBFTDeployment(
        sim, aws_four_dc_topology(), leader_site
    )
    return _measure(sim, deployment.replicate, rounds)


_RUNNERS = {
    "paxos": run_paxos,
    "blockplane-paxos": run_blockplane_paxos,
    "hierarchical-pbft": run_hierarchical_pbft,
    "pbft": run_pbft,
}


def run(
    sites: Sequence[str] = AWS_SITES,
    systems: Sequence[str] = SYSTEMS,
    rounds: int = 20,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """Full Figure 7 sweep; returns site → system → latency ms."""
    return {
        site: {
            system: _RUNNERS[system](site, rounds=rounds, seed=seed)
            for system in systems
        }
        for site in sites
    }


def main(rounds: int = 10) -> Dict[str, Dict[str, float]]:
    """Print Figure 7."""
    results = run(rounds=rounds)
    rows = []
    for site, by_system in results.items():
        for system, latency in by_system.items():
            rows.append(
                [
                    site,
                    system,
                    fmt_ms(latency),
                    str(PAPER_FIG7.get(site, {}).get(system, "-")),
                ]
            )
    print("Figure 7 — Replication-phase latency per leader datacenter")
    print(format_table(["leader", "system", "latency ms", "paper ms"], rows))
    return results


if __name__ == "__main__":
    main()
