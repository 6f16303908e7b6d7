"""Tests for BlockplaneNode internals: signature service, reception
handling, duplicate suppression, position futures."""

from repro.core.messages import SignRequest, SignResponse, TransmissionMessage
from repro.core.records import (
    RECORD_LOG_COMMIT,
    RECORD_RECEIVED,
    RECORD_TRUNCATE,
    SealedTransmission,
    TransmissionRecord,
)
from repro.crypto.signatures import QuorumProof, sign

from tests.conftest import apply_committed, build_pair, build_single_dc


def commit(sim, api, value, record_type=RECORD_LOG_COMMIT, meta=None):
    gateway = api.unit.gateway_node()
    return sim.run_until_resolved(
        gateway.local_commit(value, record_type, meta, 100)
    )


def test_collect_local_signatures_reaches_f_plus_one(sim):
    deployment = build_pair(sim)
    api = deployment.api("A")
    sim.run_until_resolved(api.send("m", to="B"))
    sim.run(until=sim.now + 5)
    gateway = deployment.unit("A").gateway_node()
    entry = gateway.local_log.read(1)
    record = TransmissionRecord(
        source="A",
        destination="B",
        message="m",
        source_position=1,
        prev_position=None,
        payload_bytes=entry.payload_bytes,
    )
    proof = sim.run_until_resolved(
        gateway.collect_local_signatures(1, record.digest(), "transmission")
    )
    assert proof.is_valid(
        deployment.registry, 2,
        allowed_signers=deployment.directory.unit_members("A"),
    )


def test_nodes_refuse_to_sign_unsubstantiated_records(sim):
    deployment = build_pair(sim)
    gateway = deployment.unit("A").gateway_node()
    other = deployment.unit("A").nodes[1]
    # Nothing committed: a sign request for position 1 must be deferred,
    # not answered.
    request = SignRequest(position=1, digest="ff" * 32, purpose="transmission")
    other.handle_sign_request(request, gateway.node_id)
    sim.run(until=5.0)
    assert ("ff" * 32) not in {
        collector.digest for collector in gateway._sign_collectors.values()
    }
    assert other._deferred_sign_requests


def test_nodes_refuse_to_sign_mismatched_digest(sim):
    deployment = build_pair(sim)
    api = deployment.api("A")
    sim.run_until_resolved(api.send("m", to="B"))
    sim.run(until=sim.now + 5)
    node = deployment.unit("A").nodes[1]
    bogus = SignRequest(position=1, digest="00" * 32, purpose="transmission")
    assert node._attest(bogus) is False


def test_signing_defers_until_entry_applied_then_answers(sim):
    deployment = build_pair(sim)
    gateway = deployment.unit("A").gateway_node()
    api = deployment.api("A")
    # Ask for signatures before the entry exists anywhere.
    record = TransmissionRecord(
        source="A",
        destination="B",
        message="early",
        source_position=1,
        prev_position=None,
        payload_bytes=1000,
    )
    proof_future = gateway.collect_local_signatures(
        1, record.digest(), "transmission"
    )
    sim.run(until=2.0)
    assert not proof_future.resolved
    sim.run_until_resolved(api.send("early", to="B"))
    proof = sim.run_until_resolved(proof_future)
    assert len(proof.signatures) >= 2


def test_repeated_early_request_is_held_once_and_answered_once(sim):
    deployment = build_pair(sim)
    api = deployment.api("A")
    node = deployment.unit("A").nodes[1]
    record = TransmissionRecord(
        source="A",
        destination="B",
        message="early",
        source_position=1,
        prev_position=None,
        payload_bytes=1000,
    )
    request = SignRequest(
        position=1, digest=record.digest(), purpose="transmission"
    )
    answers = []
    forward = node.send

    def counting(dst, message):
        if isinstance(message, SignResponse) and dst == "A-3":
            answers.append(message.digest)
        forward(dst, message)

    node.send = counting
    for _ in range(20):  # a collector re-broadcasting before the apply
        node.handle_sign_request(request, "A-3")
    assert len(node._deferred_sign_requests) == 1
    sim.run_until_resolved(api.send("early", to="B"))
    sim.run(until=sim.now + 50)
    assert answers == [record.digest()]
    assert not node._deferred_sign_requests


def test_requests_the_log_has_passed_are_not_held(sim):
    deployment = build_pair(sim)
    sim.run_until_resolved(deployment.api("A").send("m", to="B"))
    sim.run(until=sim.now + 5)
    gateway = deployment.unit("A").gateway_node()
    node = deployment.unit("A").nodes[1]
    assert node.local_log.covers(1)
    assert not node._deferred_sign_requests
    for request in (
        # An applied position with the wrong digest never becomes true.
        SignRequest(position=1, digest="00" * 32, purpose="transmission"),
        # Position 0 precedes every 1-based log (the canary probe).
        SignRequest(position=0, digest="ff" * 32, purpose="transmission"),
    ):
        node.handle_sign_request(request, gateway.node_id)
        assert not node._deferred_sign_requests


def test_incoming_transmission_committed_once_despite_fanout(sim):
    # Both fanout targets submit the same transmission; the unit must
    # commit it exactly once.
    deployment = build_pair(sim)
    api_b = deployment.api("B")
    got = []

    def receiver():
        message = yield api_b.receive("A")
        got.append(message)

    sim.spawn(receiver())
    sim.run_until_resolved(deployment.api("A").send("once", to="B"))
    sim.run(until=500.0)
    assert got == ["once"]
    log = deployment.unit("B").gateway_node().local_log
    received_entries = [
        entry for entry in log if entry.record_type == "received"
    ]
    assert len(received_entries) == 1


def test_superseded_reception_submission_leaves_no_live_retry_timer(sim):
    # Both fanout targets submit the same sealed transmission. Whoever
    # applies the committed reception abandons its own submission: the
    # request must leave the engine *and* take its retry timer with it.
    deployment = build_pair(sim)
    nodes_b = deployment.unit("B").nodes
    retries = []
    for node in nodes_b:
        node.engine._request_timeout = retries.append
    sim.run_until_resolved(deployment.api("A").send("once", to="B"))
    sim.run(until=sim.now + 100.0)
    submitters = [n for n in nodes_b if n.engine._request_counter]
    assert len(submitters) == 2
    assert all(not node.engine._pending for node in nodes_b)
    # Far beyond the 50 ms request timeout: no retry timer fires, not
    # even as a no-op on a request that is already gone.
    sim.run(until=sim.now + 1_000.0)
    assert retries == []


def test_retransmitted_transmission_is_dropped(sim):
    deployment = build_pair(sim)
    api_b = deployment.api("B")
    sim.run_until_resolved(deployment.api("A").send("m", to="B"))
    sim.run(until=300.0)
    log_b = deployment.unit("B").gateway_node().local_log
    length_before = len(log_b)
    # Re-deliver the same sealed transmission out of band.
    gateway_a = deployment.unit("A").gateway_node()
    entry = gateway_a.local_log.read(1)
    record = TransmissionRecord(
        source="A",
        destination="B",
        message=entry.value,
        source_position=1,
        prev_position=None,
        payload_bytes=entry.payload_bytes,
    )
    proof = QuorumProof.build(
        record.digest(),
        [
            sign(deployment.registry, signer, record.digest())
            for signer in ["A-0", "A-1"]
        ],
    )
    for node in deployment.unit("B").nodes:
        node.handle_transmission_message(
            TransmissionMessage(sealed=SealedTransmission(record, proof)),
            "A-0",
        )
    sim.run(until=sim.now + 200.0)
    assert len(log_b) == length_before


def test_forged_transmission_never_commits(sim):
    # A transmission with too few source signatures must be refused by
    # the receive verification routine on every honest node.
    deployment = build_pair(sim)
    record = TransmissionRecord(
        source="A",
        destination="B",
        message="forged",
        source_position=1,
        prev_position=None,
    )
    weak_proof = QuorumProof.build(
        record.digest(),
        [sign(deployment.registry, "A-0", record.digest())],
    )
    for node in deployment.unit("B").nodes:
        node.handle_transmission_message(
            TransmissionMessage(sealed=SealedTransmission(record, weak_proof)),
            "A-0",
        )
    sim.run(until=500.0)
    log = deployment.unit("B").gateway_node().local_log
    assert all(entry.record_type != "received" for entry in log)


def test_position_future_resolves_after_apply(sim):
    deployment = build_single_dc(sim)
    gateway = deployment.unit("DC").gateway_node()
    committed = sim.run_until_resolved(
        gateway.local_commit("v", RECORD_LOG_COMMIT, None, 10)
    )
    position = sim.run_until_resolved(gateway.position_future(committed.seq))
    assert position == 1


def test_out_of_order_transmissions_delivered_in_chain_order(sim):
    # Deliver transmission #2 before #1 (a racing daemon): the chain
    # machinery must hand the application "first" then "second", and
    # both must commit exactly once.
    deployment = build_pair(sim)
    registry = deployment.registry

    def sealed(position, prev, message):
        record = TransmissionRecord(
            source="A",
            destination="B",
            message=message,
            source_position=position,
            prev_position=prev,
        )
        proof = QuorumProof.build(
            record.digest(),
            [sign(registry, signer, record.digest()) for signer in ["A-0", "A-1"]],
        )
        return SealedTransmission(record, proof)

    got = []

    def receiver():
        api = deployment.api("B")
        while len(got) < 2:
            message = yield api.receive("A")
            got.append(message)

    sim.spawn(receiver())
    target = deployment.unit("B").gateway_node()
    target.handle_transmission_message(
        TransmissionMessage(sealed=sealed(2, 1, "second")), "A-0"
    )
    sim.run(until=50.0)
    target.handle_transmission_message(
        TransmissionMessage(sealed=sealed(1, None, "first")), "A-0"
    )
    sim.run(until=1000.0)
    assert got == ["first", "second"]
    log = target.local_log
    received_positions = sorted(
        entry.value.record.source_position
        for entry in log
        if entry.record_type == "received"
    )
    assert received_positions == [1, 2]


def test_folding_past_a_gap_still_delivers_the_predecessor(sim):
    # A successor (5, prev 3) commits before its predecessor, then a
    # committed truncation folds both reception entries before 3
    # commits. The fold must not make 3 read as already received:
    # receive() still yields the whole chain, in chain order.
    node = build_pair(sim).unit("B").nodes[1]

    def received(position, prev):
        record = TransmissionRecord(
            source="A", destination="B", message=f"m{position}",
            source_position=position, prev_position=prev,
        )
        proof = QuorumProof(digest=record.digest(), signatures=())
        apply_committed(node, RECORD_RECEIVED, SealedTransmission(record, proof))

    received(1, None)
    received(5, 3)
    apply_committed(node, RECORD_TRUNCATE, 3, meta={"checkpoint_seq": 1})
    assert node.local_log.base_position == 3
    received(3, 1)
    polls = [node.poll_reception("A") for _ in range(3)]
    assert [poll.result() for poll in polls if poll.resolved] == [
        "m1", "m3", "m5",
    ]
