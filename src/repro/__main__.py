"""Command-line entry point: experiments plus tool subcommands.

Usage::

    python -m repro                 # every table and figure (quick sizes)
    python -m repro fig4 table2     # a subset
    python -m repro --full          # paper-sized runs (slower)
    python -m repro fig4 --obs-out DIR   # + observability artifacts
    python -m repro --help          # subcommand + experiment inventory

    python -m repro console --demo --out replay.html
    python -m repro chaos --seed 7 --runs 5 --profile mixed
    python -m repro chaos --seed 2 --profile byzantine --strict
    python -m repro lint src tests
    python -m repro console --help  # per-subcommand help is forwarded

With ``--obs-out DIR`` the obs-aware drivers (fig4/fig5/fig6/table2)
record metrics and commit-lifecycle spans into one shared
:class:`~repro.obs.Observability` session, a canonical fully traced
cross-datacenter commit is appended, and
:func:`repro.obs.exporters.export_all` writes ``DIR``:
``metrics.json``, ``metrics.prom`` (Prometheus text format),
``trace.json`` (Chrome trace-event JSON — load it in
``chrome://tracing`` or Perfetto), ``journal.json``, and the console
bundle ``console.json`` (replay it with ``python -m repro console
--bundle DIR/console.json``) with its rendered ``console.html``.

Each driver prints its table with the paper's reported values alongside.
"""

from __future__ import annotations

import importlib
import sys

#: Tool subcommands: name → (dotted module with a ``main(argv)``,
#: one-line summary). Dispatch imports lazily, like the experiments'
#: below, so ``python -m repro table1`` never pays for the
#: chaos/forensics stacks, and each subcommand's own argparse handles
#: ``--help`` forwarding.
_SUBCOMMANDS = {
    "console": (
        "repro.obs.console.__main__",
        "render a console bundle into a self-contained HTML replay "
        "(topology animation, swimlanes, auditor overlay)",
    ),
    "chaos": (
        "repro.chaos.__main__",
        "seeded fault injection, checked by the global invariants and "
        "scored by the byzantine auditor; schedule shrinking",
    ),
    "lint": (
        "repro.analysis.__main__",
        "protocol-aware static analysis (rules: --list-rules)",
    ),
}

#: Experiment → (dotted driver module with a ``main(**sizes)``,
#: {parameter: (quick size, --full size)}). Only the selected drivers
#: are imported.
_EXPERIMENTS = {
    "table1": ("repro.experiments.table1_topology", {}),
    "fig4": (
        "repro.experiments.fig4_local_commit",
        {"measured": (100, 1000), "warmup": (10, 100)},
    ),
    "table2": (
        "repro.experiments.table2_scalability",
        {"measured": (100, 1000), "warmup": (10, 100)},
    ),
    "fig5": (
        "repro.experiments.fig5_geo", {"measured": (20, 100), "warmup": (2, 10)}
    ),
    "fig6": ("repro.experiments.fig6_communication", {"rounds": (8, 20)}),
    "fig7": ("repro.experiments.fig7_consensus", {"rounds": (8, 20)}),
    "fig8": (
        "repro.experiments.fig8_failures",
        {"backup_batches": (70, 100), "primary_batches": (100, 160)},
    ),
    "ablations": ("repro.experiments.ablations", {}),
}

#: The drivers whose ``main`` records into an ``obs=`` session.
_OBS_AWARE = ("fig4", "table2", "fig5", "fig6")


def _parse_obs_out(argv: list) -> tuple:
    """Extract ``--obs-out DIR`` / ``--obs-out=DIR``; returns
    (remaining argv, directory or None, error message or None)."""
    remaining = []
    directory = None
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == "--obs-out":
            if index + 1 >= len(argv):
                return argv, None, "--obs-out requires a directory argument"
            directory = argv[index + 1]
            index += 2
            continue
        if arg.startswith("--obs-out="):
            directory = arg.split("=", 1)[1]
            if not directory:
                return argv, None, "--obs-out requires a directory argument"
            index += 1
            continue
        remaining.append(arg)
        index += 1
    return remaining, directory, None


def _print_help() -> None:
    """The top-level inventory: subcommands, then experiments."""
    print("usage: python -m repro [SUBCOMMAND | EXPERIMENT...] [flags]")
    print()
    print("subcommands (each forwards --help to its own parser):")
    width = max(len(name) for name in _SUBCOMMANDS)
    for name, (_module, summary) in _SUBCOMMANDS.items():
        print(f"  {name:<{width}}  {summary}")
    print()
    print("experiments (default: all, quick sizes):")
    print(f"  {', '.join(_EXPERIMENTS)}")
    print()
    print("experiment flags:")
    print("  --full         paper-sized runs (slower)")
    print("  --obs-out DIR  export metrics/trace/journal + console bundle")


def main(argv: list) -> int:
    """Dispatch a tool subcommand or run experiment drivers."""
    if argv and argv[0] in ("--help", "-h", "help"):
        _print_help()
        return 0
    if argv and argv[0] in _SUBCOMMANDS:
        # Forward to the tool's own CLI: `python -m repro console ...`
        # is equivalent to `python -m repro.obs.console ...`, with the
        # remaining argv (including --help) handed to its parser.
        module_name, _summary = _SUBCOMMANDS[argv[0]]
        module = importlib.import_module(module_name)
        return module.main(argv[1:])
    argv, obs_out, error = _parse_obs_out(argv)
    if error:
        print(error)
        return 2
    full = "--full" in argv
    names = [arg for arg in argv if not arg.startswith("-")]
    unknown = [name for name in names if name not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"available: {', '.join(_EXPERIMENTS)}")
        print(f"subcommands: {', '.join(_SUBCOMMANDS)}")
        return 2
    selected = names or list(_EXPERIMENTS)
    obs = None
    if obs_out is not None:
        from repro.obs import Observability

        obs = Observability(enabled=True, histogram_window_ms=1000.0)
    for index, name in enumerate(selected):
        if index:
            print()
            print("=" * 68)
            print()
        module_name, sizes = _EXPERIMENTS[name]
        driver = importlib.import_module(module_name).main
        kwargs = {
            parameter: full_size if full else quick_size
            for parameter, (quick_size, full_size) in sizes.items()
        }
        if name in _OBS_AWARE:
            kwargs["obs"] = obs
        driver(**kwargs)
    if obs is not None:
        from repro.obs.demo import trace_commit_lifecycle
        from repro.obs.exporters import export_all

        # Append one canonical fully traced cross-DC commit so the
        # exported Chrome trace always covers the complete lifecycle,
        # whatever experiments were selected.
        trace_commit_lifecycle(obs)
        paths = export_all(obs, obs_out)
        print()
        print("observability artifacts:")
        for _name, path in sorted(paths.items()):
            print(f"  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
