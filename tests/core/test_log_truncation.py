"""Log truncation, snapshots, and restore (the bounded-memory layer).

The contract under test: folding a prefix into a :class:`LogSnapshot`
must not change any answer the middleware relies on — the node's
duplicate/gap rejection of receptions, communication chain pointers,
digest-chain comparability — and a restore from a certified snapshot
must leave a recovering node giving those same answers.
"""

import pytest

from repro.core.local_log import GENESIS_CHAIN, LocalLog
from repro.core.records import (
    RECORD_COMMUNICATION,
    RECORD_LOG_COMMIT,
    RECORD_RECEIVED,
    RECORD_TRUNCATE,
    SealedTransmission,
    TransmissionRecord,
)
from repro.crypto.signatures import QuorumProof
from repro.errors import LogError

from tests.conftest import apply_committed, build_pair


def sealed(source, position, prev, message="m", destination="DC"):
    record = TransmissionRecord(
        source=source,
        destination=destination,
        message=message,
        source_position=position,
        prev_position=prev,
    )
    return SealedTransmission(
        record=record, proof=QuorumProof(digest=record.digest(), signatures=())
    )


def build_log(participant="DC"):
    """A log mixing all three record types:

    1 state, 2 comm->B, 3 recv A@3, 4 state, 5 comm->B, 6 recv A@7,
    7 comm->X, 8 state.
    """
    log = LocalLog(participant)
    log.append(RECORD_LOG_COMMIT, "s1")
    log.append(RECORD_COMMUNICATION, "m1", meta={"destination": "B"})
    log.append(RECORD_RECEIVED, sealed("A", 3, 0))
    log.append(RECORD_LOG_COMMIT, "s2")
    log.append(RECORD_COMMUNICATION, "m2", meta={"destination": "B"})
    log.append(RECORD_RECEIVED, sealed("A", 7, 3))
    log.append(RECORD_COMMUNICATION, "m3", meta={"destination": "X"})
    log.append(RECORD_LOG_COMMIT, "s3")
    return log


def receiving_node(node):
    """``node`` (a member of B in an A/B pair) after applying, through
    its apply path: 1 state, 2 comm->A, 3 recv A@3, 4 state, 5 recv
    A@7, 6 state."""
    apply_committed(node, RECORD_LOG_COMMIT, "s1")
    apply_committed(node, RECORD_COMMUNICATION, "m1", meta={"destination": "A"})
    apply_committed(node, RECORD_RECEIVED, sealed("A", 3, 0, destination="B"))
    apply_committed(node, RECORD_LOG_COMMIT, "s2")
    apply_committed(node, RECORD_RECEIVED, sealed("A", 7, 3, destination="B"))
    apply_committed(node, RECORD_LOG_COMMIT, "s3")
    return node


def fold(node, before):
    """Fold ``node``'s Local Log below ``before`` through a committed
    truncation (its marker entry takes the next position)."""
    apply_committed(node, RECORD_TRUNCATE, before, meta={"checkpoint_seq": 1})


class TestTruncateBasics:
    def test_positions_stay_global_after_truncation(self):
        log = build_log()
        log.truncate_before(5)
        assert len(log) == 8
        assert log.base_position == 5
        assert log.retained_count == 4
        assert log.read(5).value == "m2"
        assert log.next_position == 9
        entry = log.append(RECORD_LOG_COMMIT, "s4")
        assert entry.position == 9

    def test_covers_reflects_retained_window(self):
        log = build_log()
        assert log.covers(1) and log.covers(8)
        log.truncate_before(5)
        assert not log.covers(4)
        assert log.covers(5) and log.covers(8)
        assert not log.covers(9)

    def test_folded_read_raises(self):
        log = build_log()
        log.truncate_before(3)
        with pytest.raises(LogError, match="folded"):
            log.read(2)

    def test_truncate_past_next_position_rejected(self):
        log = build_log()
        with pytest.raises(LogError):
            log.truncate_before(10)

    def test_truncate_is_idempotent_and_monotonic(self):
        log = build_log()
        first = log.truncate_before(5)
        again = log.truncate_before(5)
        backwards = log.truncate_before(2)
        assert first == again == backwards
        assert log.base_position == 5


class TestReceptionAnswersSurviveTruncation:
    def test_duplicate_rejection_identical_before_and_after(self, sim):
        # The node answers from its reception record, so folding the
        # Local Log changes nothing: the positions that carried
        # transmissions to us (3 and 7) and everything above them
        # answer exactly as before.
        node = receiving_node(build_pair(sim).unit("B").nodes[1])
        exact = (3, 7, 8, 9)
        before = {p: node.has_received("A", p) for p in exact}
        fold(node, 7)  # folds both receptions (positions 3, 5)
        assert node.local_log.base_position == 7
        after = {p: node.has_received("A", p) for p in exact}
        assert before == after
        assert after[3] and after[7]
        assert not after[8] and not after[9]

    def test_gap_detection_identical_before_and_after(self, sim):
        node = receiving_node(build_pair(sim).unit("B").nodes[1])
        assert node.last_received_from("A") == 7
        fold(node, 7)
        assert node.last_received_from("A") == 7
        assert node.last_received_from("other") == 0

    def test_new_receptions_layer_over_the_floor(self, sim):
        node = receiving_node(build_pair(sim).unit("B").nodes[1])
        fold(node, 7)
        # 9 commits ahead of its predecessor 8, which is still in flight.
        apply_committed(
            node, RECORD_RECEIVED, sealed("A", 9, 8, destination="B")
        )
        assert node.has_received("A", 9)
        assert not node.has_received("A", 8)
        assert node.last_received_from("A") == 9


class TestCommunicationChainsSurviveTruncation:
    def test_retained_positions_exclude_folded(self):
        log = build_log()
        log.truncate_before(5)
        assert log.communication_positions("B") == [5]
        assert log.folded_communication_head("B") == 2
        assert log.folded_communication_head("X") is None

    def test_chain_pointer_bridges_the_boundary(self):
        log = build_log()
        expected = log.previous_communication_position("B", 5)
        log.truncate_before(5)
        assert log.previous_communication_position("B", 5) == expected == 2


class TestDigestChain:
    def test_chain_at_boundary_matches_pre_truncation_value(self):
        log = build_log()
        boundary_chain = log.chain_at(4)
        head = log.entry_chain
        log.truncate_before(5)
        assert log.base_chain == boundary_chain
        assert log.chain_at(4) == boundary_chain
        assert log.entry_chain == head
        with pytest.raises(LogError):
            log.chain_at(3)

    def test_untruncated_and_truncated_copies_stay_comparable(self):
        full, truncated = build_log(), build_log()
        truncated.truncate_before(6)
        boundary = truncated.base_position - 1
        assert full.chain_at(boundary) == truncated.base_chain
        for position in range(6, 9):
            assert full.chain_at(position) == truncated.chain_at(position)

    def test_fresh_log_base_is_genesis(self):
        assert LocalLog("DC").base_chain == GENESIS_CHAIN


class TestSnapshotRoundTrip:
    def test_snapshot_equals_truncate_everything(self):
        log = build_log()
        described = log.snapshot()
        folded = log.truncate_before(log.next_position)
        assert described == folded
        assert log.retained_count == 0

    def test_restore_round_trip_preserves_all_answers(self, sim):
        nodes = build_pair(sim).unit("B").nodes
        source, restored = receiving_node(nodes[1]), nodes[2]
        snapshot = source.checkpoint_payload(6)
        assert snapshot.reception_floors == (("A", 7),)
        assert restored.install_snapshot(snapshot, 6)

        log, restored_log = source.local_log, restored.local_log
        assert len(restored_log) == len(log)
        assert restored_log.entry_chain == log.entry_chain
        assert restored_log.base_position == log.next_position
        for p in (3, 7, 8, 9):  # transmission positions + above-floor
            assert restored.has_received("A", p) == source.has_received("A", p)
        assert restored.last_received_from("A") == 7
        assert restored.checkpoint_payload(6) == snapshot
        for destination in ("A", "X"):
            assert restored_log.folded_communication_head(destination) == (
                log.communication_positions(destination) or [None]
            )[-1]

    def test_restore_then_append_continues_the_chain(self):
        source = build_log()
        restored = LocalLog("DC")
        restored.restore(source.snapshot())
        a = source.append(RECORD_LOG_COMMIT, "s4")
        b = restored.append(RECORD_LOG_COMMIT, "s4")
        assert a.position == b.position == 9
        assert source.entry_chain == restored.entry_chain

    def test_restore_rejects_foreign_participant(self):
        snapshot = build_log("DC").snapshot()
        with pytest.raises(LogError, match="offered"):
            LocalLog("Other").restore(snapshot)

    def test_duplicate_and_gap_rejection_after_restore_and_truncate_agree(
        self, sim,
    ):
        # The contract end to end: a node answering from a restored
        # snapshot and one whose log folded everything reject exactly
        # the same duplicates.
        nodes = build_pair(sim).unit("B").nodes
        truncated, restored = receiving_node(nodes[1]), nodes[2]
        restored.install_snapshot(truncated.checkpoint_payload(6), 6)
        fold(truncated, truncated.local_log.next_position)
        for p in range(1, 10):
            assert truncated.has_received("A", p) == restored.has_received(
                "A", p
            )
        assert truncated.last_received_from(
            "A"
        ) == restored.last_received_from("A")
