"""A commit that survives leader failover renders as ONE trace tree.

The submitting gateway (A-0, view-0 leader) is crashed before the
commit is submitted; the surviving replicas view-change to A-1 and
commit the request in view 1. Instrumentation must stitch the whole
journey — original submission, view change, re-propose, apply on every
survivor — onto a single trace.
"""

from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.obs import Observability
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology


def _failover_commit(obs: Observability):
    """Crash the view-0 leader of A, then commit through the API."""
    sim = Simulator(seed=5)
    obs.bind_clock(sim)
    deployment = BlockplaneDeployment(
        sim,
        symmetric_topology(["A", "B"], 20.0),
        BlockplaneConfig(f_independent=1),
        obs=obs,
    )
    deployment.unit("A").nodes[0].crash()
    future = deployment.api("A").log_commit("after-failover")
    position = sim.run_until_resolved(future, max_events=10_000_000)
    return deployment, position


def test_failover_commit_is_one_trace_tree():
    obs = Observability(enabled=True)
    _, position = _failover_commit(obs)
    assert position == 1  # the commit survived the crashed leader

    # The commit landed in view 1 — a real failover happened.
    proposals = [e for e in obs.journal
                 if e.kind == "pbft.pre_prepare" and e.participant == "A"]
    assert proposals
    assert {e.args["view"] for e in proposals} == {1}
    assert [e for e in obs.journal if e.kind == "pbft.view_change"]
    assert [e for e in obs.journal if e.kind == "pbft.new_view"]

    # Every proposal carries the SAME, non-None trace context.
    traces = {e.trace for e in proposals}
    assert len(traces) == 1
    (trace,) = traces
    assert trace is not None

    # Every survivor's apply is stitched onto that same trace,
    # including the first replica to apply (registration happens
    # before its own append).
    appends = [e for e in obs.journal
               if e.kind == "log.append" and e.participant == "A"]
    assert sorted(e.node for e in appends) == ["A-1", "A-2", "A-3"]
    assert {e.trace for e in appends} == {trace}


def test_failover_spans_share_one_root():
    obs = Observability(enabled=True)
    _failover_commit(obs)
    proposals = [e for e in obs.journal
                 if e.kind == "pbft.pre_prepare" and e.participant == "A"]
    trace_id = proposals[0].trace[0]
    spans = [s for s in obs.spans if s.trace_id == trace_id]
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1  # one tree, rooted at the commit span
    assert roots[0].name == "commit"
    # The consensus work after the view change hangs off that root.
    assert any(s.name.startswith("pbft.") for s in spans)
