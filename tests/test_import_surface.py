"""What a plain deployment imports and compiles.

The benchmark's processes (and every ``python -m repro`` run) pay the
import of what they use before they do any work, so code that a plain
``log_commit`` deployment never runs must not load: optional subsystems
(geo replication, the chaos plan model, byzantine variants, batching,
exporters) load where they are used, package ``__init__``s re-export
only what their importers load anyway, and the wire codec compiles a
class's code on that class's first use. Tier-1 itself imports
everything, so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import repro

#: What ``bench/workloads.py`` imports from the package.
BENCH_IMPORTS = (
    "repro.core.middleware",
    "repro.core.codec",
    "repro.sim.faults",
    "repro.workloads.openloop",
    "repro.apps.bp_paxos",
    "repro.chaos.invariants",
    "repro.obs.hub",
)

#: Modules no benchmark import and no plain deployment runs.
NOT_LOADED = (
    "repro.apps.bank",
    "repro.apps.counter",
    "repro.apps.kvstore",
    "repro.apps.lockservice",
    "repro.chaos.generator",
    "repro.chaos.plan",
    "repro.chaos.runner",
    "repro.chaos.shrink",
    "repro.core.batching",
    "repro.core.byzantine",
    "repro.core.geo",
    "repro.obs.critpath",
    "repro.obs.exporters",
    "repro.paxos.node",
    "repro.pbft.byzantine",
    "repro.workloads.generator",
    "repro.workloads.runner",
)

#: Imports the benchmark's modules, then drives one fi = 2 unit with
#: open-loop ``log_commit`` load (the ``unit_f2`` shape, shortened), and
#: prints what was loaded and generated before and after the run.
_CHILD = """
import importlib, json, sys

for name in sys.argv[2:]:
    importlib.import_module(name)
from repro.core import codec

wanted = json.loads(sys.argv[1])

def snapshot():
    return {
        "loaded": sorted(name for name in wanted if name in sys.modules),
        "generated": sorted(cls.__name__ for cls in codec._SPECS),
    }

before = snapshot()

from repro.core.config import BlockplaneConfig
from repro.core.middleware import BlockplaneDeployment
from repro.pbft.config import PBFTConfig
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology
from repro.workloads.openloop import OpenLoopWorkload, open_loop_process

sim = Simulator(seed=7)
deployment = BlockplaneDeployment(
    sim,
    symmetric_topology(("A",), 40.0),
    BlockplaneConfig(
        f_independent=2,
        f_geo=0,
        pbft=PBFTConfig(checkpoint_interval=16, gc_executed_log=True),
        admission_max_in_flight=256,
    ),
)
api = deployment.api("A")
workload = OpenLoopWorkload(
    rate_per_s=800.0, total=60, batch_bytes=96, seed=7,
    burst_every=25, burst_size=5, clients=8, hot_fraction=0.2,
)
stats = {"offered": 0, "admitted": 0, "shed": 0, "committed": 0,
         "failed": 0, "dropped": 0, "duration_ms": 0.0}
done = sim.spawn(open_loop_process(
    sim, lambda value, size: api.log_commit(value, payload_bytes=size),
    workload, stats, 2.0, 100, 5.0))
sim.run(until=5_000.0)
print(json.dumps({
    "before": before,
    "after": snapshot(),
    "committed": stats["committed"],
    "settled": done.resolved,
}))
"""


def _run_child():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(NOT_LOADED), *BENCH_IMPORTS],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_a_plain_deployment_loads_and_compiles_only_what_it_runs():
    report = _run_child()
    assert report["before"] == {"loaded": [], "generated": []}
    # The run itself (commits, checkpoints, log truncation) encodes,
    # decodes and digests no wire class and loads nothing optional.
    assert report["committed"] == 60 and report["settled"]
    assert report["after"] == {"loaded": [], "generated": []}
