#!/usr/bin/env python3
"""Watching Blockplane mask byzantine behaviour, with an online audit.

Plants a silent node and a forging node inside one unit, runs a
workload with the flight recorder on, and then asks the online auditor
who misbehaved — the observability a real operator would want from a
byzantizing layer: the illegal proposal comes back rejected with its
reason, and the silent node is named from the journal alone.

Run:
    python examples/byzantine_audit.py
"""

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.core.byzantine import SilentUnitMember
from repro.core.verification import VerificationRoutines
from repro.errors import VerificationFailed
from repro.obs import Observability
from repro.obs.forensics import OnlineAuditor
from repro.sim import Simulator, aws_four_dc_topology


class PositiveNumbersOnly(VerificationRoutines):
    """The wrapped protocol's legal transitions: positive ints."""

    def verify_log_commit(self, value, meta):
        return isinstance(value, int) and value > 0


def main() -> None:
    sim = Simulator(seed=23)
    obs = Observability(tracing=False)  # metrics + flight recorder
    auditor = OnlineAuditor(obs.journal)
    deployment = BlockplaneDeployment(
        sim,
        aws_four_dc_topology(),
        BlockplaneConfig(f_independent=1),
        routines_factory=lambda _name: PositiveNumbersOnly(),
        # Byzantine node 1: goes completely silent.
        node_class_overrides={"C-3": SilentUnitMember},
        obs=obs,
    )
    unit = deployment.unit("C")
    api = deployment.api("C")
    silent = unit.nodes[3]
    # Byzantine node 2: tries to commit an illegal transition directly.
    corrupt = unit.nodes[2]

    def workload():
        for value in (10, 20, 30):
            position = yield api.log_commit(value, payload_bytes=64)
            print(f"[{sim.now:7.2f} ms] committed {value} at position "
                  f"{position} (despite one silent unit member)")
        # The corrupt node proposes -5 directly to the unit's PBFT.
        try:
            yield corrupt.local_commit(-5, "log-commit", None, 64)
        except VerificationFailed as error:
            print(f"[{sim.now:7.2f} ms] {corrupt.node_id}'s proposal of -5 "
                  f"rejected: {error}")
        yield sim.sleep(500.0)

    process = sim.spawn(workload())
    sim.run(until=10_000.0)
    assert process.resolved
    assert len(silent.local_log) == 0

    honest_logs = [
        [entry.value for entry in node.local_log]
        for node in unit.nodes
        if node is not silent
    ]
    print()
    print(f"Honest logs agree: {all(l == honest_logs[0] for l in honest_logs)}")
    print(f"Illegal value -5 in any honest log: "
          f"{any(-5 in log for log in honest_logs)}")
    print()
    print("Audit report:")
    print(auditor.report().to_text())


if __name__ == "__main__":
    main()
