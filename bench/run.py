#!/usr/bin/env python3
"""One benchmark for the repo: ``python bench/run.py``.

Modes:

* no arguments — every workload, one child process after another
  (never two busy processes: the container has two cores): one untraced
  child (1 warm-up + ``--repeats`` timed repeats) for the end-to-end
  metrics and one traced child for the per-layer table; prints one line
  per workload x metric and, with ``--out``, writes one JSON result file;
* ``--workload NAME [--seconds S | --repeats N] [--trace 0|1]`` — one
  workload in this process; the last stdout line is the driver's JSON
  object (``correct``, ``attempted``, ``failed``, ``metrics``);
* ``--compare A.json B.json`` — per workload and metric: A, B, relative
  delta and a verdict against the benchmark's own bounds;
* ``--selftest`` — every workload at 1/20 size, determinism and
  conservation assertions (< 30 s).

``--seed`` (default 7) seeds arrivals, payloads and the simulator.
Sizes are frozen in ``workloads.py``; there are no per-workload knobs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
REPRO_ROOT = os.path.join(SRC_DIR, "repro")

DEFAULT_SEED = 7
#: Later claims must also hold on this seed (never used while tuning).
SECOND_SEED = 11
DEFAULT_REPEATS = 5
#: A run whose CPU/wall ratio falls below this was disturbed by another
#: process; its host-time numbers are flagged.
DISTURBED_CPU_OVER_WALL = 0.95
#: Profile conservation: |profiled wall - sum of self times| / wall.
#: cProfile's own per-call bookkeeping sits outside every function's
#: self time; it measures 2.5-3.5 % at full size here. Above the bound
#: the layer table is flagged, not failed: the residual says how good
#: the instrument was on this run, not whether the program was right.
CONSERVATION_BOUND = 0.05

#: End-to-end metrics the driver gates (present and non-zero on every
#: gated workload): name -> (unit, better, bound as a share of the
#: parent's median).
END_TO_END = {
    "commits_per_s": ("1/s", "higher", 0.25),
    "commit_p50_vms": ("vms", "lower", 0.02),
    "commit_p99_vms": ("vms", "lower", 0.15),
    "e2e_p50_vms": ("vms", "lower", 0.02),
    "e2e_p99_vms": ("vms", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}
#: End-to-end metrics that exist only on some workloads; reported in
#: the result file and compared, never sent to the driver.
END_TO_END_OPTIONAL = {
    "deliver_p50_vms": ("vms", "lower", 0.02),
    "deliver_p99_vms": ("vms", "lower", 0.15),
    "failed_frac": ("fraction", "lower", 0.0),
    "ok_frac": ("fraction", "higher", 0.0),
}

_EXACT_COUNTERS = (
    "sim.events_per_op", "sim.timers_cancelled_per_op", "sim.heap_compactions",
    "net.msgs_per_op", "net.bytes_per_op", "net.undelivered_msgs",
    "codec.frames_per_op", "codec.bytes_per_frame",
    "crypto.digest_misses_per_op", "crypto.digest_hit_ratio",
    "pbft.view_changes", "pbft.stable_checkpoint_min", "pbft.slots_high_water",
    "pbft.snapshot_installs", "core.log_entries_per_op",
    "core.retained_high_water", "core.truncated_entries",
    "core.admission_shed_per_op", "obs.journal_events_per_op",
    "obs.spans_per_op", "obs.dropped",
)
_EXACT_WAITS = (
    "workloads.admission_wait_p99_vms", "daemon.ship_p50_vms",
    "daemon.ship_p99_vms", "pbft.outage_vms", "apps.paxos_round_vs_paper",
)
_TAP = (
    "pbft.msgs_per_op", "pbft.pre_prepare_per_op", "pbft.prepare_per_op",
    "pbft.commit_per_op", "pbft.checkpoint_per_op", "pbft.view_change_msgs",
    "pbft.catch_up_msgs", "daemon.msgs_per_op",
    "daemon.transmissions_per_send", "daemon.acks_per_send",
    "net.wan_msgs_per_op", "net.wan_bytes_per_op",
)
_PROFILE_CALLS = (
    "crypto.sign_calls_per_op", "crypto.verify_calls_per_op",
    "crypto.stable_digest_calls_per_op", "apps.verify_routine_calls_per_op",
)
_PROBES = (
    "sim.schedule_run_ns_per_event", "net.send_deliver_us_per_msg",
    "crypto.stable_digest_us", "crypto.cached_digest_us", "crypto.sign_us",
    "crypto.verify_us", "crypto.proof_check_us", "codec.encode_us_per_frame",
    "codec.decode_us_per_frame", "obs.journal_record_us", "obs.span_us",
)
#: Layer metrics that are pure functions of the seed (compared by
#: equality); everything else in the layer table is host time.
EXACT_LAYER_METRICS = frozenset(
    _EXACT_COUNTERS + _EXACT_WAITS + _TAP + _PROFILE_CALLS
    + ("trace.counts_match",)
)
#: Every per-layer metric a traced run reports, in table order.
PER_LAYER = (
    _EXACT_COUNTERS
    + ("sim.events_per_host_s", "host.cpu_over_wall")
    + _EXACT_WAITS + _TAP
    + tuple(f"{layer}.self_us_per_op" for layer in layers.LAYERS)
    + tuple(f"{layer}.host_share" for layer in layers.LAYERS)
    + _PROFILE_CALLS
    + ("trace.conservation_residual", "trace.overhead_ratio",
       "trace.counts_match")
    + _PROBES
)


def _unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric][0]
    if metric in END_TO_END_OPTIONAL:
        return END_TO_END_OPTIONAL[metric][0]
    for suffix, unit in (
        ("_vms", "vms"), ("_ns_per_event", "ns"), ("_us", "us"),
        ("_us_per_op", "us"), ("_us_per_msg", "us"), ("_us_per_frame", "us"),
        ("_share", "fraction"), ("_ratio", "ratio"), ("_residual", "fraction"),
        ("_per_host_s", "1/s"), ("cpu_over_wall", "ratio"),
        ("vs_paper", "ratio"), ("bytes_per_op", "B"), ("bytes_per_frame", "B"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


def _import_repro():
    """Import the program under test; returns the import time in
    seconds. Exits with code 2 when the checkout has no ``src/repro``
    (the benchmark cannot run without the program it measures)."""
    if not os.path.isdir(REPRO_ROOT):
        print(f"bench: no program to measure at {REPRO_ROOT}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC_DIR)
    started = time.perf_counter()
    import workloads  # noqa: F401  (imports every repro layer it drives)
    return time.perf_counter() - started


#: Fresh-interpreter imports timed per run, besides this process's own.
_EXTRA_IMPORTS = 5


def _fresh_import_s() -> float:
    """Time the same import in a fresh interpreter. One process can
    import only once, and a single sample of a 0.2 s import swings by
    a third on this host; ``setup_s`` takes the fastest of several
    (interference only ever adds time)."""
    code = (
        "import sys, time; sys.path[:0] = [%r, %r]; "
        "t = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - t)" % (BENCH_DIR, SRC_DIR)
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
        check=True)
    return float(completed.stdout)


def _quartiles(samples: List[float]) -> List[float]:
    if len(samples) < 2:
        return [samples[0]] * 3
    return statistics.quantiles(samples, n=4)


def undisturbed_wall_s(slices_by_repeat: List[List[float]]) -> float:
    """Host time of one repeat as an undisturbed host would run it.

    This container's speed swings by +-25 % over fractions of a second
    to minutes (a neighbour on the same core), and interference only
    ever adds time. Repeats of one seed are exact replays, so slice k
    of the simulation (``workloads.SLICE_VMS`` of virtual time) does the
    same work in every repeat: the fastest of its timings is the best
    estimate of that work's cost, and the sum over slices is the
    repeat. Measured here over ~15 s runs, that sum moves 2.5-7 % between
    runs (13.6 % in the worst disturbed stretch seen) where the median
    repeat moves 6-25 % and the fastest whole repeat 4-13 %.
    """
    return sum(min(column) for column in zip(*slices_by_repeat))


def _sampled(samples: List[float], unit: str, value: float) -> Dict[str, Any]:
    """A host-time metric: the reported ``value`` plus the per-repeat
    samples behind it. ``spread`` is the samples' interquartile range
    as a share of their median, divided by sqrt(n) — how far ``value``
    itself is expected to move between runs; ``--compare`` calls a
    metric unresolved when it exceeds the metric's bound."""
    quartiles = _quartiles(samples)
    median = statistics.median(samples)
    return {
        "value": value,
        "unit": unit,
        "n": len(samples),
        "samples": samples,
        "quartiles": quartiles,
        "spread": (
            (quartiles[2] - quartiles[0]) / median / len(samples) ** 0.5
            if median else 0.0
        ),
    }


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def measure(
    name: str,
    seed: int,
    seconds: Optional[float],
    repeats: Optional[int],
    trace: bool,
    scale: int = 1,
    import_s: float = 0.0,
) -> Dict[str, Any]:
    """Run workload ``name`` and return its result block."""
    import workloads

    spec = workloads.WORKLOADS[name]
    problems: List[str] = []
    # Warm-up. For the obs-on workload the warm-up is its obs-off
    # control, so "same traffic, only obs differs" is asserted on every
    # run rather than assumed.
    warm = workloads.run_once(
        dataclasses.replace(spec, obs=False), seed, scale)
    runs = []
    started = time.perf_counter()
    wanted = 1 if trace else repeats
    while True:
        runs.append(workloads.run_once(spec, seed, scale))
        if wanted is not None:
            if len(runs) >= wanted:
                break
        elif time.perf_counter() - started >= seconds and len(runs) >= 3:
            break
    first = runs[0]
    if spec.obs:
        for key in ("sim.events", "net.msgs"):
            if warm.counters[key] != first.counters[key]:
                problems.append(
                    f"{key} differs from the obs-off control: "
                    f"{first.counters[key]} vs {warm.counters[key]}")
    for other in runs[1:]:
        if (other.exact, other.counters, len(other.slice_s)) != (
                first.exact, first.counters, len(first.slice_s)):
            problems.append("repeats of the same seed differ in exact metrics")
            break
    problems.extend(first.violations)
    for key, what in (("duplicate_deliveries", "messages delivered twice"),
                      ("unsettled", "offered ops never settled")):
        if first.exact[key]["value"]:
            problems.append(f"{first.exact[key]['value']} {what}")
    block: Dict[str, Any] = {
        "why": spec.why,
        "gated": spec.gated,
        "seed": seed,
        "scale": scale,
        "ops": first.ops,
        "offered": first.offered,
        "failed": first.failed,
        "schedule_digest": first.schedule_digest,
    }
    wall = undisturbed_wall_s([run.slice_s for run in runs])
    cpu_over_wall = sum(run.cpu_s for run in runs) / sum(
        run.wall_s for run in runs)
    exact_layers = {
        key: first.counters[key] for key in _EXACT_COUNTERS
    }
    for key in _EXACT_WAITS:
        if key in first.exact:
            exact_layers[key] = first.exact[key]["value"]
    host = {
        "sim.events_per_host_s": first.counters["sim.events"] / wall,
        "host.cpu_over_wall": cpu_over_wall,
    }
    if not trace:
        block["end_to_end"] = _end_to_end(runs, wall, import_s)
        block["host"] = host
        block["disturbed"] = cpu_over_wall < DISTURBED_CPU_OVER_WALL
        block["exact"] = exact_layers
    else:
        tap = layers.MessageTap()
        profiled = layers.Profiled()
        traced = workloads.run_once(
            spec, seed, scale, tap=tap, around_run=profiled)
        ops = max(traced.ops, 1)
        table: Dict[str, Any] = {**exact_layers, **host}
        table.update(tap.table(ops))
        table.update(layers.fold_profile(profiled, REPRO_ROOT, BENCH_DIR, ops))
        table["trace.overhead_ratio"] = traced.wall_s / wall
        counts_match = all(
            traced.counters[key] == first.counters[key]
            for key in ("sim.events", "net.msgs")
        ) and traced.exact == first.exact
        table["trace.counts_match"] = int(counts_match)
        if not counts_match:
            problems.append("traced run's counts differ from the untraced run")
        block["layers_flagged"] = (
            table["trace.conservation_residual"] > CONSERVATION_BOUND)
        table.update(layers.run_probes(tap.frames))
        block["layers"] = table
    block["correct"] = not problems
    block["problems"] = problems
    return block


def _end_to_end(runs, wall: float, import_s: float) -> Dict[str, Any]:
    """The end-to-end block of an untraced run: host-time metrics from
    every repeat, exact ones from the first (they are all alike)."""
    first = runs[0]
    e2e: Dict[str, Any] = {
        "commits_per_s": _sampled(
            [first.ops / run.wall_s for run in runs], "1/s", first.ops / wall),
    }
    for key in END_TO_END.keys() | END_TO_END_OPTIONAL.keys():
        if key in first.exact:
            e2e[key] = dict(first.exact[key], unit=_unit_of(key))
    e2e["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB", "n": 1,
    }
    setups = [run.setup_s for run in runs]
    e2e["setup_s"] = _sampled(
        [import_s + setup for setup in setups], "s", import_s + min(setups))
    e2e["setup_s"]["import_s"] = import_s
    return e2e


def _print_block(name: str, block: Dict[str, Any]) -> None:
    """One line per metric: workload, name, value, unit, n."""
    for key, entry in sorted(block.get("end_to_end", {}).items()):
        print(f"{name:20s} {key:34s} {entry['value']:>14.6g} "
              f"{entry['unit']:9s} n={entry['n']}")
    for section in ("host", "exact", "layers"):
        for key, value in block.get(section, {}).items():
            print(f"{name:20s} {key:34s} {value:>14.6g} {_unit_of(key):9s} n=1")
    if block.get("layers_flagged"):
        print(f"{name:20s} WARNING profile conservation residual above "
              f"{CONSERVATION_BOUND}: layer shares are less trustworthy")
    if block.get("disturbed"):
        print(f"{name:20s} WARNING cpu/wall below {DISTURBED_CPU_OVER_WALL}: "
              "another process disturbed this run")
    for problem in block["problems"]:
        print(f"{name:20s} PROBLEM {problem}")


def _driver_line(block: Dict[str, Any], trace: bool) -> str:
    """The driver's result object: exactly four keys; every declared
    metric present (a per-layer metric that does not apply to this
    workload reads 0 here and is absent from the result file)."""
    if trace:
        table = block["layers"]
        metrics = {
            key: {"value": table.get(key, 0), "unit": _unit_of(key)}
            for key in PER_LAYER
        }
    else:
        e2e = block["end_to_end"]
        metrics = {
            key: {"value": e2e[key]["value"], "unit": END_TO_END[key][0]}
            for key in END_TO_END
        }
    repeats = block["end_to_end"]["commits_per_s"]["n"] if not trace else 1
    return json.dumps({
        "correct": block["correct"],
        "attempted": block["offered"] * repeats,
        "failed": block["failed"] * repeats,
        "metrics": metrics,
    })


def run_one(args) -> int:
    import_s = _import_repro()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = DEFAULT_REPEATS
    if not trace:
        import_s = min(
            [import_s] + [_fresh_import_s() for _ in range(_EXTRA_IMPORTS)])
    block = measure(
        args.workload, args.seed, args.seconds, repeats, trace,
        import_s=import_s)
    _print_block(args.workload, block)
    if args.out:
        _write_result(args.out, args.seed, {args.workload: block})
    print(_driver_line(block, trace))
    return 0


# ----------------------------------------------------------------------
# Every workload, one child after another
# ----------------------------------------------------------------------
def _write_result(path: str, seed: int, by_workload: Dict[str, Any]) -> None:
    # No timestamps or hostnames: two result files must diff cleanly.
    with open(path, "w") as handle:
        json.dump(
            {"benchmark": "blockplane-bench/v1", "seed": seed,
             "workloads": by_workload},
            handle, indent=1, sort_keys=True)
        handle.write("\n")


def _child(name: str, seed: int, repeats: int, trace: int, out: str) -> int:
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--repeats", str(repeats),
        "--trace", str(trace), "--out", out,
    ]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    # Relay the child's metric lines, not its driver object.
    sys.stdout.write("".join(completed.stdout.splitlines(True)[:-1]))
    sys.stdout.flush()
    return completed.returncode


def run_all(args) -> int:
    _import_repro()
    import workloads

    merged: Dict[str, Any] = {}
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, spec in workloads.WORKLOADS.items():
            block: Dict[str, Any] = {}
            for trace in (0, 1):
                part = os.path.join(scratch, f"{name}.{trace}.json")
                code = _child(
                    name, args.seed, args.repeats or DEFAULT_REPEATS,
                    trace, part)
                if code != 0:
                    print(f"{name:20s} PROBLEM child exited with {code}")
                    status = 1
                    continue
                with open(part) as handle:
                    piece = json.load(handle)["workloads"][name]
                # Both children run the output checks; report each once.
                problems = list(dict.fromkeys(
                    block.get("problems", []) + piece["problems"]))
                block.update(piece)
                block["problems"] = problems
                block["correct"] = not problems
            merged[name] = block
            clean = block.get("correct") and not block.get("failed")
            if not clean:
                if spec.gated:
                    status = 1
                else:
                    print(f"{name:20s} FINDING  ungated workload: "
                          f"failed={block.get('failed')} "
                          f"problems={len(block.get('problems', []))}")
    if args.out:
        _write_result(args.out, args.seed, merged)
    return status


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _verdict(metric, a_entry, b_entry) -> str:
    a, b = a_entry["value"], b_entry["value"]
    if a == b:
        return "same"
    unit, better, bound = (
        END_TO_END.get(metric) or END_TO_END_OPTIONAL[metric])
    if max(a_entry.get("spread", 0.0), b_entry.get("spread", 0.0)) > bound:
        return "unresolved"
    worse = (b - a) if better == "lower" else (a - b)
    limit = bound * abs(a)
    if metric == "setup_s":
        limit = max(limit, 0.05)
    if worse > limit:
        return "REGRESSED"
    if -worse > limit:
        return "improved"
    return "within-bound"


def compare(path_a: str, path_b: str) -> int:
    """Print A, B, relative delta and a verdict per workload x metric.
    Exit code 1 iff anything REGRESSED or is unresolved."""
    with open(path_a) as handle:
        result_a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        result_b = json.load(handle)["workloads"]
    bad = 0
    for name in result_a:
        if name not in result_b:
            print(f"{name:20s} only in A")
            continue
        block_a, block_b = result_a[name], result_b[name]
        e2e_a = block_a.get("end_to_end", {})
        e2e_b = block_b.get("end_to_end", {})
        for metric in sorted(e2e_a.keys() & e2e_b.keys()):
            verdict = _verdict(metric, e2e_a[metric], e2e_b[metric])
            bad += verdict in ("REGRESSED", "unresolved")
            _print_delta(name, metric, e2e_a[metric]["value"],
                         e2e_b[metric]["value"], verdict)
        for section in ("exact", "layers"):
            table_a = block_a.get(section, {})
            table_b = block_b.get(section, {})
            for metric in sorted(table_a.keys() & table_b.keys()):
                a, b = table_a[metric], table_b[metric]
                if metric in EXACT_LAYER_METRICS:
                    verdict = "same" if a == b else "changed"
                else:
                    verdict = "host-time"
                _print_delta(name, metric, a, b, verdict)
    return 1 if bad else 0


def _print_delta(name, metric, a, b, verdict) -> None:
    delta = (b - a) / abs(a) if a else 0.0
    print(f"{name:20s} {metric:34s} {a:>14.6g} {b:>14.6g} "
          f"{100 * delta:+8.2f}%  {verdict}")


# ----------------------------------------------------------------------
# --selftest
# ----------------------------------------------------------------------
def selftest() -> int:
    """Every workload at 1/20 size: determinism, conservation, control
    equality, seed sensitivity, and BENCHMARK.json <-> tables lockstep."""
    _import_repro()
    import workloads

    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)
            print("FAIL", what)

    scale = 20
    for name, spec in workloads.WORKLOADS.items():
        first = measure(name, DEFAULT_SEED, None, 1, False, scale)
        again = measure(name, DEFAULT_SEED, None, 1, False, scale)
        traced = measure(name, DEFAULT_SEED, None, 1, True, scale)
        other = measure(name, SECOND_SEED, None, 1, False, scale)
        check(first["exact"] == again["exact"], f"{name}: exact counters repeat")
        exact_e2e = [
            {k: v["value"] for k, v in block["end_to_end"].items()
             if "samples" not in v and k != "peak_rss_mb"}
            for block in (first, again)
        ]
        check(exact_e2e[0] == exact_e2e[1], f"{name}: exact e2e metrics repeat")
        check(traced["layers"]["trace.counts_match"] == 1,
              f"{name}: traced counts match untraced")
        # Twice the full-size bound: at 1/20 size the profiled phase is
        # tens of milliseconds, so one host hiccup weighs far more.
        check(traced["layers"]["trace.conservation_residual"]
              <= 2 * CONSERVATION_BOUND, f"{name}: profile conservation")
        shares = sum(
            traced["layers"][f"{layer}.host_share"] for layer in layers.LAYERS)
        check(abs(shares - 1.0) < 1e-9, f"{name}: layer shares sum to 1")
        check(set(PER_LAYER) >= set(traced["layers"]),
              f"{name}: layer table has only declared metrics")
        check(first["schedule_digest"] != other["schedule_digest"],
              f"{name}: seed {SECOND_SEED} changes the schedule")
        if spec.gated:
            for block, seed in ((first, DEFAULT_SEED), (other, SECOND_SEED)):
                check(block["correct"] and block["failed"] == 0,
                      f"{name}: output checks pass on seed {seed}: "
                      f"{block['problems']}")
            check(all(first["end_to_end"].get(key, {}).get("value")
                      for key in END_TO_END),
                  f"{name}: every gated end-to-end metric present, non-zero")
        print(f"ok   {name}")
    manifest_path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        declared = {m["name"]: (m["unit"], m["better"], m["bound"])
                    for m in manifest["end_to_end"]}
        check(declared == END_TO_END, "BENCHMARK.json end_to_end == run.py")
        check([m["name"] for m in manifest["per_layer"]] == list(PER_LAYER),
              "BENCHMARK.json per_layer == run.py")
        gated = [n for n, s in workloads.WORKLOADS.items() if s.gated]
        check([w["name"] for w in manifest["workloads"]] == gated,
              "BENCHMARK.json workloads == gated workloads")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        return selftest()
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
