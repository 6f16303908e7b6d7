#!/usr/bin/env python3
"""Print every Section VIII driver's result, exactly, one line each.

Usage::

    PYTHONPATH=src python3 tools/figures.py > figures.txt

Each line is ``name: repr(result)`` for a driver run at the quick sizes
``python -m repro`` uses, plus Fig. 8's backup-recovery extension and
the per-operation cost table. ``repr`` of a float round-trips, so two
outputs that compare equal with ``cmp`` are bit-identical results.
Only the public driver API is called, so the script runs against any
tree's ``src`` (``make identical`` runs it on the base and on the
working tree and compares the two outputs).
"""

from __future__ import annotations

from repro.experiments import (
    ablations,
    costs,
    fig4_local_commit,
    fig5_geo,
    fig6_communication,
    fig7_consensus,
    fig8_failures,
    table1_topology,
    table2_scalability,
)

#: name → driver call at ``python -m repro``'s quick sizes.
FIGURES = {
    "table1": lambda: table1_topology.run(),
    "fig4": lambda: fig4_local_commit.run(measured=100, warmup=10),
    "table2": lambda: table2_scalability.run(measured=100, warmup=10),
    "fig5": lambda: fig5_geo.run(measured=20, warmup=2),
    "fig6": lambda: fig6_communication.run(rounds=8),
    "fig7": lambda: fig7_consensus.run(rounds=8),
    "fig8.backup_failure": lambda: fig8_failures.run_backup_failure(batches=70),
    "fig8.primary_failure": lambda: fig8_failures.run_primary_failure(
        batches=100
    ),
    "fig8.backup_recovery": lambda: fig8_failures.run_backup_recovery(),
    "ablations.read_strategies": lambda: ablations.run_read_strategies(),
    "ablations.batching": lambda: ablations.run_batching(),
    "ablations.transmission_fanout": lambda: (
        ablations.run_transmission_fanout()
    ),
    "ablations.intra_dc_sensitivity": lambda: (
        ablations.run_intra_dc_sensitivity()
    ),
    "ablations.participant_scaling": lambda: (
        ablations.run_participant_scaling()
    ),
    "ablations.fi_scaling": lambda: ablations.run_fi_scaling(),
    "costs": lambda: costs.run(),
}


def main() -> int:
    for name, driver in FIGURES.items():
        print(f"{name}: {driver()!r}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
