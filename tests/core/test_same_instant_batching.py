"""Same-instant batching at the gateway: the API records a unit receives
within one virtual instant share one PBFT slot (after the first, which
is submitted alone), and every replica unrolls the slot into one Local
Log entry per record."""

import pytest

from repro.chaos.invariants import check_local_log_agreement
from repro.core import BlockplaneConfig, VerificationRoutines
from repro.core.records import RECORD_BATCH, RECORD_LOG_COMMIT
from repro.errors import VerificationFailed
from repro.obs import Observability, critpath
from repro.pbft.config import PBFTConfig
from repro.pbft.engine import NOOP_RECORD_TYPE
from repro.sim.simulator import Simulator

from tests.conftest import build_single_dc


def burst(sim, api, values):
    """Hand the API every value in one virtual instant; futures in
    submission order."""
    return [api.log_commit(value, payload_bytes=64) for value in values]


def logs(unit):
    return [
        [(entry.position, entry.value) for entry in node.local_log]
        for node in unit.nodes
    ]


def slot_types(node):
    return [
        entry.record_type for entry in node.executed_entries
        if entry.record_type != NOOP_RECORD_TYPE
    ]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_burst_takes_two_slots_and_consecutive_positions(sim, k):
    deployment = build_single_dc(sim)
    unit = deployment.unit("DC")
    values = [f"v{index}" for index in range(k + 1)]
    futures = burst(sim, deployment.api("DC"), values)
    sim.run(until=200.0)
    assert [future.result() for future in futures] == list(range(1, k + 2))
    # The first record alone, then the rest together (one record left
    # over is a plain request, not a batch of one).
    second = RECORD_BATCH if k > 1 else RECORD_LOG_COMMIT
    for node in unit.nodes:
        assert slot_types(node) == [RECORD_LOG_COMMIT, second]
    assert logs(unit)[0] == list(enumerate(values, start=1))
    assert all(log == logs(unit)[0] for log in logs(unit))


class RejectBad(VerificationRoutines):
    def verify_log_commit(self, value, meta):
        return value != "bad"


def test_a_rejected_record_fails_alone_and_the_others_commit(sim):
    deployment = build_single_dc(sim, routines_factory=lambda _site: RejectBad())
    futures = burst(sim, deployment.api("DC"), ["a", "b", "bad", "c"])
    sim.run(until=200.0)
    # As when every record had its own slot: the refused batch is
    # resubmitted record by record, each with its own verdict.
    assert [future.result() for future in futures[:2]] == [1, 2]
    assert isinstance(futures[2].exception, VerificationFailed)
    assert futures[3].result() == 3
    unit = deployment.unit("DC")
    assert all(log == [(1, "a"), (2, "b"), (3, "c")] for log in logs(unit))


def test_a_backup_down_across_batched_slots_rejoins(sim):
    config = BlockplaneConfig(
        f_independent=1, pbft=PBFTConfig(checkpoint_interval=4)
    )
    deployment = build_single_dc(sim, config=config)
    unit = deployment.unit("DC")
    api = deployment.api("DC")
    backup = unit.nodes[3]
    backup.crash()
    futures = []
    for round_ in range(6):
        sim.run(until=sim.now + 20.0)
        futures += burst(sim, api, [f"r{round_}-{i}" for i in range(5)])
    sim.run(until=sim.now + 100.0)
    assert RECORD_BATCH in slot_types(unit.nodes[0])
    backup.recover()
    sim.run(until=sim.now + 2_000.0)
    # Truncation markers take positions too: only the order is fixed.
    positions = [future.result() for future in futures]
    assert positions == sorted(set(positions)) and len(positions) == 30
    assert check_local_log_agreement(deployment) == []
    assert backup.local_log.next_position == unit.nodes[0].local_log.next_position


def test_a_traced_record_in_a_batch_keeps_its_spans():
    sim = Simulator(seed=3)
    obs = Observability(enabled=True)
    obs.bind_clock(sim)
    deployment = build_single_dc(sim, obs=obs)
    futures = burst(sim, deployment.api("DC"), ["lone", "x", "y"])
    sim.run(until=200.0)
    positions = [future.result() for future in futures]
    assert positions == [1, 2, 3]
    assert slot_types(deployment.unit("DC").nodes[0])[1] == RECORD_BATCH
    by_trace = {}
    for span in obs.spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    assert len(by_trace) == 3
    kinds = [sorted({span.name for span in spans}) for spans in by_trace.values()]
    # The lone record went exactly as before batching; the batched
    # ones carry the same span kinds.
    assert "log.apply" in kinds[0] and "pbft.commit" in kinds[0]
    assert kinds[1] == kinds[0] and kinds[2] == kinds[0]
    applied = sorted(
        span.args["position"] for span in obs.spans if span.name == "log.apply"
    )
    assert applied == positions
    decompositions = critpath.decompose_all(obs.spans)
    assert len(decompositions) == 3
    for d in decompositions:
        assert d.conservation_error_ms <= critpath.CONSERVATION_TOLERANCE_MS
    assert critpath.attribute(decompositions)["conservation"]["ok"] is True


class Verdicts(VerificationRoutines):
    """``"no"`` fails, ``"later"`` defers, anything else passes."""

    def verify_log_commit(self, value, meta):
        return {"no": False, "later": None}.get(value, True)


def test_a_batch_verdict_combines_its_records_and_refuses_malformed_ones(sim):
    deployment = build_single_dc(sim, routines_factory=lambda _site: Verdicts())
    node = deployment.unit("DC").nodes[1]

    def batch(*values, record_type=RECORD_LOG_COMMIT, size=8):
        return tuple((record_type, value, (), size) for value in values)

    send = (("communication", "m", (("destination", "X"),), 8),)
    assert node.verify(batch("a", "b") + send, RECORD_BATCH, None) is True
    assert node.verify(batch("a", "later"), RECORD_BATCH, None) is None
    assert node.verify(batch("later", "no"), RECORD_BATCH, None) is False
    # Only stateless record types, well-formed, may ride in a batch.
    for malformed in (
        (), "abc", 7, (("log-commit", "a"),), batch("a", size="8"),
        batch("a", record_type="received"), batch("a", record_type="batch"),
        (("log-commit", "a", ((1, 2, 3),), 8),), ((["log-commit"], "a", (), 8),),
    ):
        assert node.verify(malformed, RECORD_BATCH, None) is False, malformed
