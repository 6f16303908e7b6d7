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
cross-datacenter commit is appended, and :func:`repro.obs.export_all`
writes ``DIR``: ``metrics.json``, ``metrics.prom`` (Prometheus text
format), ``trace.json`` (Chrome trace-event JSON — load it in
``chrome://tracing`` or Perfetto), ``journal.json``, and the console
bundle ``console.json`` (replay it with ``python -m repro console
--bundle DIR/console.json``) with its rendered ``console.html``.

Each driver prints its table with the paper's reported values alongside.
"""

from __future__ import annotations

import sys

from repro.experiments import (
    ablations,
    fig4_local_commit,
    fig5_geo,
    fig6_communication,
    fig7_consensus,
    fig8_failures,
    table1_topology,
    table2_scalability,
)

#: Tool subcommands: name → (dotted module with a ``main(argv)``,
#: one-line summary). Dispatch imports lazily so ``python -m repro
#: table1`` never pays for the chaos/forensics stacks, and each
#: subcommand's own argparse handles ``--help`` forwarding.
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

# Drivers take ``obs=None``; the ones not yet instrumented ignore the
# flag (their lambdas below simply drop it).
_QUICK = {
    "table1": lambda obs=None: table1_topology.main(),
    "fig4": lambda obs=None: fig4_local_commit.main(
        measured=100, warmup=10, obs=obs
    ),
    "table2": lambda obs=None: table2_scalability.main(
        measured=100, warmup=10, obs=obs
    ),
    "fig5": lambda obs=None: fig5_geo.main(measured=20, warmup=2, obs=obs),
    "fig6": lambda obs=None: fig6_communication.main(rounds=8, obs=obs),
    "fig7": lambda obs=None: fig7_consensus.main(rounds=8),
    "fig8": lambda obs=None: fig8_failures.main(backup_batches=70,
                                                primary_batches=100),
    "ablations": lambda obs=None: ablations.main(),
}

_FULL = {
    "table1": lambda obs=None: table1_topology.main(),
    "fig4": lambda obs=None: fig4_local_commit.main(
        measured=1000, warmup=100, obs=obs
    ),
    "table2": lambda obs=None: table2_scalability.main(
        measured=1000, warmup=100, obs=obs
    ),
    "fig5": lambda obs=None: fig5_geo.main(measured=100, warmup=10, obs=obs),
    "fig6": lambda obs=None: fig6_communication.main(rounds=20, obs=obs),
    "fig7": lambda obs=None: fig7_consensus.main(rounds=20),
    "fig8": lambda obs=None: fig8_failures.main(backup_batches=100,
                                                primary_batches=160),
    "ablations": lambda obs=None: ablations.main(),
}


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
    print(f"  {', '.join(_QUICK)}")
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
        import importlib

        module_name, _summary = _SUBCOMMANDS[argv[0]]
        module = importlib.import_module(module_name)
        return module.main(argv[1:])
    argv, obs_out, error = _parse_obs_out(argv)
    if error:
        print(error)
        return 2
    full = "--full" in argv
    names = [arg for arg in argv if not arg.startswith("-")]
    table = _FULL if full else _QUICK
    unknown = [name for name in names if name not in table]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"available: {', '.join(table)}")
        print(f"subcommands: {', '.join(_SUBCOMMANDS)}")
        return 2
    selected = names or list(table)
    obs = None
    if obs_out is not None:
        from repro.obs import Observability

        obs = Observability(enabled=True, histogram_window_ms=1000.0)
    for index, name in enumerate(selected):
        if index:
            print()
            print("=" * 68)
            print()
        table[name](obs=obs)
    if obs is not None:
        from repro.obs import export_all
        from repro.obs.demo import trace_commit_lifecycle

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
