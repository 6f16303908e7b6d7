#!/usr/bin/env python3
"""Execution census of ``src/repro``: the functions no real path runs.

Usage::

    python3 tools/census.py [--max N] [--out census.txt]   # or: make census

Every real path — the benchmark, the paper-shape suite, the examples,
every experiment and every command the Makefile and CI run, with the
flags they use (:func:`real_paths`) — runs under a ``sys.settrace``
call tracer, and so does tier-1. Each function of ``src/repro`` (an ``ast``
walk) that no real path enters lands in one bucket:

* ``failure-path`` — kept; ``FAILURE_PATHS`` names the tier-1 test that
  owns it, and the census re-runs those tests to check they do run it;
* ``test-only`` — tier-1 runs it and nothing else does: delete it with
  its tests, or name the real path that needs it;
* ``never-run`` — nothing runs it: delete it.

The tracer reaches child processes (``bench/run.py`` starts one per
workload) through a generated ``sitecustomize.py`` on ``PYTHONPATH``;
each process dumps the code objects it entered when it exits. It is a
trace hook, not a profile hook, because ``bench/layers.py``'s cProfile
takes the profile hook over. A small pytest plugin reinstalls it before
every test: CPython drops the trace function when a test overflows the
stack on purpose (the codec's ``RecursionError`` tests), and every test
after that would read as never run.

Prints the count per bucket and per package, then the list. Exits 1
when a real path or tier-1 fails, an owning test no longer runs its
function, a ``FAILURE_PATHS`` entry names no failure-path function (a
stale entry), or the unreached total exceeds ``--max``.
"""

from __future__ import annotations

import argparse
import ast
import collections
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, NamedTuple, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")

_AUDITOR = "repro.obs.forensics.auditor:OnlineAuditor."
_AUDIT_TESTS = "tests/obs/test_forensics_auditor.py::"
_SHRINK_TESTS = "tests/chaos/test_shrink.py::"

#: Kept functions that only a failure runs: ``module:qualname`` -> the
#: tier-1 test that owns it (``path::test``).
FAILURE_PATHS: Dict[str, str] = {
    # The linter found something (the tree it checks is clean).
    "repro.analysis.findings:Finding.__str__":
        "tests/analysis/test_selfcheck.py::test_cli_exit_one_with_findings",
    "repro.analysis.findings:Finding.to_dict":
        "tests/analysis/test_selfcheck.py::test_cli_json_format",
    # A chaos run broke an invariant: the shrinker.
    "repro.chaos.shrink:ShrinkReport.removed":
        _SHRINK_TESTS + "test_shrink_isolates_the_overlapping_pair",
    "repro.chaos.shrink:_ddmin":
        _SHRINK_TESTS + "test_shrink_isolates_the_overlapping_pair",
    "repro.chaos.shrink:_narrow_windows":
        _SHRINK_TESTS + "test_windows_are_narrowed_while_failure_persists",
    "repro.chaos.shrink:default_oracle":
        "tests/chaos/test_cli.py::test_over_budget_plan_fails_and_shrinks",
    "repro.chaos.shrink:repro_script":
        _SHRINK_TESTS + "test_repro_script_embeds_the_plan_and_compiles",
    "repro.chaos.shrink:shrink_plan":
        _SHRINK_TESTS + "test_shrink_isolates_the_overlapping_pair",
    "repro.chaos.shrink:shrink_plan._check":
        _SHRINK_TESTS + "test_shrink_isolates_the_overlapping_pair",
    # Malformed bytes on the wire.
    "repro.core.codec:_bad":
        "tests/properties/test_codec_properties.py::"
        "test_malformed_frames_raise_protocol_error[wrong-arity]",
    # A refused Paxos ballot (the flat host's end of PaxosCore.vote's
    # reject path), an overflowing span ring, shed load.
    "repro.paxos.node:MultiPaxosNode.handle_nack":
        "tests/paxos/test_paxos.py::test_higher_ballot_deposes_leader",
    "repro.obs.spans:SpanLog._evict":
        "tests/obs/test_spans.py::test_span_ring_buffer_drops_oldest",
    "repro.workloads.openloop:open_loop_process._retry":
        "tests/test_workloads.py::TestRunOpenLoop::"
        "test_shed_arrivals_are_retried_not_lost",
    # Byzantine peers.
    _AUDITOR + "_on_verify_reject":
        _AUDIT_TESTS + "test_verify_rejects_are_counted_as_unit_health",
    "repro.pbft.replica:PBFTReplica.verify_rejected":
        _AUDIT_TESTS + "test_verify_rejects_are_counted_as_unit_health",
    _AUDITOR + "_on_sign_spoofed":
        _AUDIT_TESTS + "test_impersonating_signer_attributed",
    "repro.pbft.engine:PBFTApp.certificate_valid":
        "tests/pbft/test_engine_sans_io.py::"
        "test_plain_group_refuses_unprovable_snapshot_offers",
}

_HOOK = '''\
import atexit, os, sys, threading

_seen = set()


def tracer(frame, event, arg, _add=_seen.add):
    _add(frame.f_code)


def _dump():
    sys.settrace(None)
    rows = {{(code.co_filename, code.co_firstlineno) for code in _seen
             if "repro" in code.co_filename}}
    path = os.path.join({dumps!r}, "%d.txt" % os.getpid())
    with open(path, "a") as handle:
        handle.writelines("%s\\t%d\\n" % row for row in rows)


atexit.register(_dump)
sys.settrace(tracer)
threading.settrace(tracer)
'''

_PLUGIN = '''\
import sys, sitecustomize

def pytest_runtest_setup(item):
    sys.settrace(sitecustomize.tracer)
'''

_EXAMPLES = sorted(
    name for name in os.listdir(os.path.join(REPO, "examples"))
    if name.endswith(".py")
)
_WORKLOADS = (
    "unit_f2", "wan_mixed", "wan_mixed_obs", "wan_payload", "paxos_aws",
    "fault_backup_crash", "fault_leader_crash",
)


def real_paths(work: str) -> List[List[str]]:
    """Every command a user, the Makefile or CI runs; ``{w}`` is a
    scratch directory for their outputs. Order matters: later commands
    read what earlier ones wrote."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    lint = [py, "-m", "repro.analysis", "src", "tests"]
    audit_sizes = ["--batches", "6", "--horizon-ms", "12000",
                   "--settle-ms", "8000"]
    commands = [[py, "bench/run.py", "--selftest"]]
    for workload in _WORKLOADS:
        for trace in ("0", "1"):
            commands.append([py, "bench/run.py", "--workload", workload,
                             "--repeats", "1", "--trace", trace])
    commands += [
        [py, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        *([py, os.path.join("examples", name)] for name in _EXAMPLES),
        repro + ["--help"],
        repro,
        repro + ["--obs-out", "{w}/obs", "fig4", "fig5", "fig6", "table2"],
        repro + ["chaos", "--seed", "7", "--runs", "5", "--profile", "mixed",
                 "--shrink", "--strict", "--obs-out", "{w}/chaos"],
        repro + ["chaos", "--seed", "2", "--runs", "2", "--profile",
                 "byzantine", *audit_sizes, "--strict", "--obs-out",
                 "{w}/audit"],
        repro + ["chaos", "--seed", "7", "--runs", "2", "--profile",
                 "byzantine", *audit_sizes, "--fault-free", "--strict"],
        repro + ["chaos", "--plan", "{w}/audit/run-0/plan.json",
                 "--show-plan"],
        repro + ["console", "--demo", "--out", "{w}/demo.html"],
        repro + ["console", "--validate", "{w}/audit/run-0/console.json"],
        repro + ["console", "--bundle", "{w}/audit/run-0/console.json",
                 "--out", "{w}/replay.html"],
        repro + ["console", "--bundle", "{w}/obs/console.json", "--out",
                 "{w}/replayed.html"],
        lint,
        lint + ["--format", "json"],
        lint + ["--format", "sarif"],
        [py, "-m", "repro.analysis", "--list-rules"],
    ]
    return [[arg.format(w=work) for arg in command] for command in commands]


def _hooked_env(work: str, phase: str) -> Dict[str, str]:
    """An environment whose interpreters trace into ``work/phase``."""
    hook = os.path.join(work, "hook", phase)
    dumps = os.path.join(work, "dumps", phase)
    os.makedirs(hook)
    os.makedirs(dumps)
    with open(os.path.join(hook, "sitecustomize.py"), "w") as handle:
        handle.write(_HOOK.format(dumps=dumps))
    with open(os.path.join(hook, "census_pytest.py"), "w") as handle:
        handle.write(_PLUGIN)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([hook, SRC])
    return env


def _run(command: List[str], env: Dict[str, str]) -> int:
    started = time.monotonic()
    code = subprocess.run(
        command, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode
    print(f"  exit {code:<3d} {time.monotonic() - started:6.1f}s  "
          + " ".join(command[1:]), file=sys.stderr, flush=True)
    return code


def _entered(work: str, phase: str) -> Set[Tuple[str, int]]:
    """``(path relative to src/repro, first line)`` of every code object
    the phase's processes entered."""
    entered = set()
    directory = os.path.join(work, "dumps", phase)
    for name in os.listdir(directory):
        with open(os.path.join(directory, name)) as handle:
            for line in handle:
                filename, _, lineno = line.rstrip("\n").rpartition("\t")
                path = os.path.realpath(filename)
                if path.startswith(PACKAGE + os.sep):
                    entered.add((os.path.relpath(path, PACKAGE), int(lineno)))
    return entered


class _Function(NamedTuple):
    name: str  # module:qualname
    path: str  # relative to src/repro
    lines: Set[int]  # the def line and every decorator line
    size: int

    def ran(self, entered: Set[Tuple[str, int]]) -> bool:
        return any((self.path, line) in entered for line in self.lines)


def functions() -> List[_Function]:
    """Every ``def`` under ``src/repro``, nested ones included. A code
    object starts at its first decorator's line, so both that line and
    the ``def`` line identify it."""
    found = []
    for root, _dirs, files in os.walk(PACKAGE):
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(root, file)
            relative = os.path.relpath(path, PACKAGE)
            module = "repro." + relative[:-3].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)

            def walk(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.ClassDef):
                        walk(child, prefix + child.name + ".")
                    elif isinstance(child, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                        lines = {child.lineno} | {
                            d.lineno for d in child.decorator_list}
                        found.append(_Function(
                            f"{module}:{prefix}{child.name}", relative,
                            lines, child.end_lineno - min(lines) + 1))
                        walk(child, prefix + child.name + ".")
                    else:
                        walk(child, prefix)

            walk(tree, "")
    return found


def _package(name: str) -> str:
    module = name.split(":")[0].split(".")
    return ".".join(module[:2])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max", type=int,
                        help="fail when more functions are unreached")
    parser.add_argument("--out", default="census.txt",
                        help="where to write the list (default census.txt)")
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="census-")
    try:
        failed = []
        print("real paths:", file=sys.stderr)
        env = _hooked_env(work, "real")
        for command in real_paths(work):
            if _run(command, env) != 0:
                failed.append(" ".join(command[1:]))
        print("tier-1:", file=sys.stderr)
        if _run([sys.executable, "-m", "pytest", "-q", "-p", "census_pytest",
                 "-p", "no:cacheprovider"], _hooked_env(work, "tests")):
            failed.append("tier-1")
        owners = sorted(set(FAILURE_PATHS.values()))
        if owners:
            print("owning tests:", file=sys.stderr)
            _run([sys.executable, "-m", "pytest", "-q", "-p", "census_pytest",
                  "-p", "no:cacheprovider", *owners],
                 _hooked_env(work, "owners"))
        real = _entered(work, "real")
        tests = _entered(work, "tests")
        owned = _entered(work, "owners") if owners else set()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = functions()
    buckets: Dict[str, List[_Function]] = {
        "failure-path": [], "test-only": [], "never-run": []}
    unowned = []
    for function in every:
        if function.ran(real):
            continue
        if not function.ran(tests):
            buckets["never-run"].append(function)
        elif function.name in FAILURE_PATHS:
            buckets["failure-path"].append(function)
            if not function.ran(owned):
                unowned.append(function.name)
        else:
            buckets["test-only"].append(function)
    unreached = sum(len(group) for group in buckets.values())
    stale = sorted(
        set(FAILURE_PATHS) - {f.name for f in buckets["failure-path"]})

    lines = [f"{len(every)} functions in src/repro; {unreached} unreached "
             f"by any real path "
             f"({sum(f.size for g in buckets.values() for f in g)} lines)"]
    for bucket, group in buckets.items():
        lines.append(f"  {bucket:13s} {len(group):4d}")
    lines.append("")
    per_package = collections.Counter()
    for group in buckets.values():
        per_package.update(_package(function.name) for function in group)
    for package, count in sorted(per_package.items()):
        lines.append(f"  {package:24s} {count:4d}")
    for bucket, group in buckets.items():
        lines.append("")
        lines.append(f"[{bucket}]")
        for function in sorted(group, key=lambda f: f.name):
            owner = FAILURE_PATHS.get(function.name)
            lines.append(f"  {function.name}  ({function.size} lines)"
                         + (f"  <- {owner}" if owner else ""))
    for name in unowned:
        lines.append(f"NOT RUN BY ITS OWNING TEST: {name}")
    for name in stale:
        lines.append(f"STALE FAILURE_PATHS ENTRY: {name}")
    for command in failed:
        lines.append(f"FAILED: {command}")
    report = "\n".join(lines) + "\n"
    with open(os.path.join(REPO, args.out), "w") as handle:
        handle.write(report)
    print(report, end="")
    status = 1 if failed or unowned or stale else 0
    if args.max is not None and unreached > args.max:
        print(f"census: {unreached} unreached functions, more than the "
              f"ratchet's {args.max}", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
