"""Tests for the three read strategies (Section VI-A)."""

from repro.core.reads import ReadStrategy, required_responses

from tests.conftest import build_single_dc


def test_required_responses_per_strategy():
    assert required_responses(ReadStrategy.READ_ONE, 1) == 1
    assert required_responses(ReadStrategy.READ_QUORUM, 1) == 3
    assert required_responses(ReadStrategy.READ_QUORUM, 2) == 5
    assert required_responses(ReadStrategy.LINEARIZABLE, 1) == 1


def test_read_one_returns_committed_entry(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    position = sim.run_until_resolved(api.log_commit("value"))
    entry = sim.run_until_resolved(api.read(position))
    assert entry.value == "value"
    assert entry.position == position


def test_read_unwritten_position_returns_none(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    sim.run_until_resolved(api.log_commit("value"))
    entry = sim.run_until_resolved(api.read(99))
    assert entry is None


def test_read_quorum_agrees_with_read_one(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    position = sim.run_until_resolved(api.log_commit("q"))
    sim.run(until=sim.now + 10)  # let every replica apply
    entry = sim.run_until_resolved(
        api.read(position, ReadStrategy.READ_QUORUM)
    )
    assert entry.value == "q"


def test_read_one_can_be_fooled_by_lying_gateway(sim):
    # A malicious closest node can deny a committed entry under read-1;
    # the 2f+1 strategy is immune. We emulate the lie by truncating the
    # gateway's log copy.
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    position = sim.run_until_resolved(api.log_commit("hidden"))
    sim.run(until=sim.now + 10)
    gateway = deployment.unit("DC").gateway_node()
    stolen = gateway.local_log.entries.pop()  # the lie
    lied = sim.run_until_resolved(api.read(position))
    assert lied is None  # read-1 believed the liar
    quorum_read = sim.run_until_resolved(
        api.read(position, ReadStrategy.READ_QUORUM)
    )
    assert quorum_read is not None and quorum_read.value == "hidden"
    gateway.local_log.entries.append(stolen)


def test_quorum_read_waits_for_lagging_replicas(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    position = sim.run_until_resolved(api.log_commit("slow"))
    # Immediately after the submit future resolves, some replicas may
    # not have applied yet; the quorum read must still succeed.
    entry = sim.run_until_resolved(
        api.read(position, ReadStrategy.READ_QUORUM), max_events=5_000_000
    )
    assert entry.value == "slow"


def test_read_proven_returns_entry_with_valid_proof(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    position = sim.run_until_resolved(api.log_commit("attested"))
    sim.run(until=sim.now + 10)
    entry, proof = sim.run_until_resolved(api.read_proven(position))
    assert entry.value == "attested"
    assert proof.is_valid(
        deployment.registry, 2,
        allowed_signers=deployment.directory.unit_members("DC"),
    )


def test_read_proven_unwritten_position_is_none(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    sim.run_until_resolved(api.log_commit("x"))
    assert sim.run_until_resolved(api.read_proven(42)) is None


def test_read_proven_detects_forged_contents(sim):
    # A lying gateway swaps the entry's contents; honest unit members
    # refuse to attest the forged digest, so the proof never forms and
    # the read times out rather than returning a forgery. We detect the
    # absence of a resolution within a generous window.
    from repro.core.records import LogEntry

    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    position = sim.run_until_resolved(api.log_commit("true-value"))
    sim.run(until=sim.now + 10)
    gateway = deployment.unit("DC").gateway_node()
    forged = LogEntry(
        position=position,
        record_type="log-commit",
        value="forged-value",
        meta=None,
        payload_bytes=0,
    )
    gateway.local_log.entries[position - 1] = forged
    future = api.read_proven(position)
    sim.run(until=sim.now + 500, max_events=5_000_000)
    # Either unresolved (no quorum of signatures for the forgery) or, if
    # resolved, it must have been rejected.
    if future.resolved:
        assert future.exception is not None


def test_linearizable_read_commits_a_marker(sim):
    deployment = build_single_dc(sim)
    api = deployment.api("DC")
    position = sim.run_until_resolved(api.log_commit("lin"))
    before = len(api.unit.gateway_node().local_log)
    entry = sim.run_until_resolved(
        api.read(position, ReadStrategy.LINEARIZABLE)
    )
    assert entry.value == "lin"
    assert len(api.unit.gateway_node().local_log) == before + 1  # the read marker
