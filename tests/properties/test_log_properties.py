"""Property-based tests for Local Log invariants and the node's
reception tracking (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local_log import LocalLog
from repro.core.records import (
    RECORD_COMMUNICATION,
    RECORD_LOG_COMMIT,
    RECORD_RECEIVED,
    SealedTransmission,
    TransmissionRecord,
)
from repro.crypto.signatures import QuorumProof
from repro.sim.simulator import Simulator

from tests.conftest import apply_committed, build_pair

DESTINATIONS = ["B", "X", "Y"]

append_ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.text(max_size=8)),
        st.tuples(st.just("send"), st.sampled_from(DESTINATIONS)),
    ),
    max_size=40,
)


@given(append_ops)
@settings(max_examples=100, deadline=None)
def test_positions_are_dense_and_one_based(ops):
    log = LocalLog("A")
    for kind, arg in ops:
        if kind == "commit":
            log.append(RECORD_LOG_COMMIT, arg)
        else:
            log.append(RECORD_COMMUNICATION, "m", meta={"destination": arg})
    assert [entry.position for entry in log] == list(
        range(1, len(ops) + 1)
    )


@given(append_ops)
@settings(max_examples=100, deadline=None)
def test_communication_chain_partitions_comm_records(ops):
    log = LocalLog("A")
    for kind, arg in ops:
        if kind == "commit":
            log.append(RECORD_LOG_COMMIT, arg)
        else:
            log.append(RECORD_COMMUNICATION, "m", meta={"destination": arg})
    all_positions = []
    for destination in DESTINATIONS:
        positions = log.communication_positions(destination)
        assert positions == sorted(positions)
        all_positions.extend(positions)
    comm_count = sum(1 for kind, _ in ops if kind == "send")
    assert len(all_positions) == comm_count
    assert len(set(all_positions)) == len(all_positions)


@given(append_ops)
@settings(max_examples=100, deadline=None)
def test_chain_pointers_link_consecutive_comm_records(ops):
    log = LocalLog("A")
    for kind, arg in ops:
        if kind == "commit":
            log.append(RECORD_LOG_COMMIT, arg)
        else:
            log.append(RECORD_COMMUNICATION, "m", meta={"destination": arg})
    for destination in DESTINATIONS:
        positions = log.communication_positions(destination)
        previous = None
        for position in positions:
            assert (
                log.previous_communication_position(destination, position)
                == previous
            )
            previous = position


@given(
    st.lists(
        st.integers(min_value=1, max_value=30), min_size=1, max_size=15,
        unique=True,
    )
)
@settings(max_examples=100, deadline=None)
def test_reception_tracking_monotone(positions):
    node = build_pair(Simulator(seed=1)).unit("B").nodes[1]
    received = []
    previous = 0
    for position in sorted(positions):
        record = TransmissionRecord(
            source="A",
            destination="B",
            message="m",
            source_position=position,
            prev_position=previous if previous else None,
        )
        sealed = SealedTransmission(
            record=record,
            proof=QuorumProof(digest=record.digest(), signatures=()),
        )
        apply_committed(node, RECORD_RECEIVED, sealed)
        received.append(position)
        previous = position
        assert node.last_received_from("A") == max(received)
        assert all(node.has_received("A", p) for p in received)
