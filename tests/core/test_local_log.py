"""Unit tests for the Local Log and its communication-chain index, and
for the node-held reception state that answers duplicate and gap
questions in its place."""

import pytest

from repro.core.local_log import LocalLog
from repro.core.records import (
    RECORD_COMMUNICATION,
    RECORD_LOG_COMMIT,
    RECORD_RECEIVED,
    SealedTransmission,
    TransmissionRecord,
)
from repro.crypto.signatures import QuorumProof
from repro.errors import LogError

from tests.conftest import apply_committed, build_pair


def sealed(source, position, prev, message="m"):
    record = TransmissionRecord(
        source=source,
        destination="B",
        message=message,
        source_position=position,
        prev_position=prev,
    )
    return SealedTransmission(
        record=record, proof=QuorumProof(digest=record.digest(), signatures=())
    )


def test_append_assigns_sequential_positions():
    log = LocalLog("DC")
    e1 = log.append(RECORD_LOG_COMMIT, "a")
    e2 = log.append(RECORD_LOG_COMMIT, "b")
    assert (e1.position, e2.position) == (1, 2)
    assert len(log) == 2
    assert log.next_position == 3


def test_read_positions_are_one_based():
    log = LocalLog("DC")
    log.append(RECORD_LOG_COMMIT, "a")
    assert log.read(1).value == "a"
    with pytest.raises(LogError):
        log.read(0)
    with pytest.raises(LogError):
        log.read(2)


def test_communication_records_require_destination():
    log = LocalLog("DC")
    with pytest.raises(LogError):
        log.append(RECORD_COMMUNICATION, "msg", meta={})


def test_communication_chain_per_destination():
    log = LocalLog("DC")
    log.append(RECORD_COMMUNICATION, "m1", meta={"destination": "B"})
    log.append(RECORD_LOG_COMMIT, "state")
    log.append(RECORD_COMMUNICATION, "m2", meta={"destination": "X"})
    log.append(RECORD_COMMUNICATION, "m3", meta={"destination": "B"})
    assert log.communication_positions("B") == [1, 4]
    assert log.communication_positions("X") == [3]
    assert log.previous_communication_position("B", 4) == 1
    assert log.previous_communication_position("B", 1) is None
    assert log.previous_communication_position("X", 3) is None


def test_reception_state_tracks_source_positions(sim):
    node = build_pair(sim).unit("B").nodes[1]
    assert node.last_received_from("A") == 0
    apply_committed(node, RECORD_RECEIVED, sealed("A", 2, None))
    assert node.last_received_from("A") == 2
    assert node.has_received("A", 2)
    assert not node.has_received("A", 5)
    apply_committed(node, RECORD_RECEIVED, sealed("A", 5, 2))
    assert node.last_received_from("A") == 5


def test_reception_state_is_per_source(sim):
    node = build_pair(sim).unit("B").nodes[1]
    apply_committed(node, RECORD_RECEIVED, sealed("A", 3, None))
    assert node.last_received_from("X") == 0
    assert not node.has_received("X", 3)
    assert "X" not in node.receptions  # a lookup allocates nothing


def test_iteration_yields_entries_in_order():
    log = LocalLog("DC")
    for value in "abc":
        log.append(RECORD_LOG_COMMIT, value)
    assert [entry.value for entry in log] == ["a", "b", "c"]


def test_entry_digest_depends_on_position_and_content():
    log_a = LocalLog("DC")
    log_b = LocalLog("DC")
    e1 = log_a.append(RECORD_LOG_COMMIT, "x")
    log_b.append(RECORD_LOG_COMMIT, "pad")
    e2 = log_b.append(RECORD_LOG_COMMIT, "x")
    assert e1.digest() != e2.digest()  # same value, different position
