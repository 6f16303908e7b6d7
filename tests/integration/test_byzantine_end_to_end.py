"""End-to-end byzantine scenarios through the whole middleware stack —
the paper's Lemmas 1–3 exercised as running systems."""

from repro.core import BlockplaneConfig
from repro.core.node import BlockplaneNode

from tests.conftest import build_pair


class SilentBlockplaneNode(BlockplaneNode):
    """A unit member that participates in nothing."""

    def on_message(self, message, src_id) -> None:
        return


class LyingSignerNode(BlockplaneNode):
    """Signs transmission records it has NOT verified against its log
    (and even ones that contradict it) — a corrupt attestor."""

    def _attest(self, msg) -> bool:  # noqa: D102
        return True


def test_lemma1_unit_agreement_with_silent_member(sim):
    deployment = build_pair(
        sim, config=BlockplaneConfig(f_independent=1)
    )
    # Re-plant: one silent node inside A's unit.
    deployment.unit("A").nodes[2].on_message = lambda m, s: None

    def workload():
        api = deployment.api("A")
        for index in range(5):
            yield api.log_commit(f"v{index}")

    sim.run_until_resolved(sim.spawn(workload()), max_events=50_000_000)
    sim.run(until=sim.now + 100)
    honest = [
        node
        for index, node in enumerate(deployment.unit("A").nodes)
        if index != 2
    ]
    logs = [[e.value for e in node.local_log] for node in honest]
    assert all(log == logs[0] for log in logs)
    assert logs[0] == [f"v{index}" for index in range(5)]


def test_lemma2_receiver_only_accepts_unit_backed_messages(sim):
    # One corrupt signer is not enough: a transmission record still
    # needs f+1 = 2 signatures, and the second must come from a node
    # that actually has the record in its log.
    overrides = {"A-1": LyingSignerNode}
    deployment = build_pair(
        sim,
        config=BlockplaneConfig(f_independent=1),
    )
    # Forge a transmission signed only by the corrupt node.
    from repro.core.messages import TransmissionMessage
    from repro.core.records import SealedTransmission, TransmissionRecord
    from repro.crypto.signatures import QuorumProof, sign

    record = TransmissionRecord(
        source="A",
        destination="B",
        message="never-sent",
        source_position=1,
        prev_position=None,
    )
    proof = QuorumProof.build(
        record.digest(),
        [sign(deployment.registry, "A-1", record.digest())],
    )
    for node in deployment.unit("B").nodes:
        node.handle_transmission_message(
            TransmissionMessage(sealed=SealedTransmission(record, proof)),
            "A-1",
        )
    sim.run(until=1000.0, max_events=20_000_000)
    log_b = deployment.unit("B").gateway_node().local_log
    assert all(entry.record_type != "received" for entry in log_b)


def test_lemma2_message_order_cannot_be_manipulated(sim):
    # A byzantine daemon delivering messages out of order cannot make
    # the application observe them out of order.
    deployment = build_pair(sim)
    api_a = deployment.api("A")
    api_b = deployment.api("B")
    # Deactivate the honest daemon; we play a byzantine one below.
    deployment.unit("A").daemons["B"].active = False
    positions = []

    def sender():
        for index in range(3):
            position = yield api_a.send(f"m{index}", to="B")
            positions.append(position)

    sim.run_until_resolved(sim.spawn(sender()), max_events=20_000_000)
    sim.run(until=sim.now + 20)
    # Byzantine delivery: ship records in reverse order.
    gateway = deployment.unit("A").gateway_node()
    daemon = deployment.unit("A").daemons["B"]
    daemon.active = True
    for position in reversed(positions):
        daemon.ship(gateway.local_log.read(position))
    got = []

    def receiver():
        while len(got) < 3:
            message = yield api_b.receive("A")
            got.append(message)

    sim.spawn(receiver())
    sim.run(until=3000.0, max_events=50_000_000)
    assert got == ["m0", "m1", "m2"]


def test_lemma3_illegal_transition_cannot_enter_log(sim):
    # A byzantine unit member proposes a state transition the
    # verification routines reject; no honest node ever applies it.
    from repro.core.verification import VerificationRoutines

    class OnlyEven(VerificationRoutines):
        def verify_log_commit(self, value, meta):
            return isinstance(value, int) and value % 2 == 0

    deployment = build_pair(
        sim,
        config=BlockplaneConfig(f_independent=1),
    )
    unit = deployment.unit("A")
    for node in unit.nodes:
        node.routines = OnlyEven()
    api = deployment.api("A")
    good = api.log_commit(2)
    sim.run_until_resolved(good, max_events=20_000_000)
    # Bypass the honest gateway: a corrupt node proposes directly.
    corrupt = unit.nodes[1]
    bad = corrupt.local_commit(3, "log-commit", None, 10)
    sim.run(until=2000.0, max_events=20_000_000)
    for node in unit.nodes:
        values = [e.value for e in node.local_log]
        assert 3 not in values
        assert 2 in values


def test_byzantine_member_cannot_forge_counter_increments(sim):
    # The paper's running example: a malicious node trying to commit an
    # increment with no received message behind it.
    from repro.apps.counter import CounterVerification

    deployment = build_pair(
        sim,
        config=BlockplaneConfig(f_independent=1),
    )
    unit = deployment.unit("B")
    for node in unit.nodes:
        routines = CounterVerification()
        routines.bind(node)
        node.routines = routines
    corrupt = unit.nodes[2]
    forged = corrupt.local_commit(
        {"kind": "increment", "cause": "thin-air"}, "log-commit", None, 10
    )
    sim.run(until=2000.0, max_events=20_000_000)
    for node in unit.nodes:
        assert all(
            not (
                isinstance(e.value, dict)
                and e.value.get("kind") == "increment"
            )
            for e in node.local_log
        )


def test_one_member_cannot_wedge_its_unit_with_a_forged_reception(sim):
    # A byzantine unit member submits a reception whose proof carries no
    # valid source-unit signature. The honest leader must refuse it at
    # pre-validation: once proposed, the slot prepares, no honest
    # replica can verify it, and every later leader re-proposes it — a
    # view-change storm in which nothing is ever received.
    from repro.core.records import (
        RECORD_RECEIVED,
        SealedTransmission,
        TransmissionRecord,
    )
    from repro.crypto.signatures import QuorumProof, sign

    deployment = build_pair(sim)
    forger = deployment.unit("B").nodes[2]
    record = TransmissionRecord(
        source="A",
        destination="B",
        message="forged",
        source_position=1,
        prev_position=None,
    )
    proof = QuorumProof.build(
        record.digest(),
        [sign(deployment.registry, forger.node_id, record.digest())],
    )
    forger.engine.submit(
        SealedTransmission(record, proof), RECORD_RECEIVED, {"source": "A"}
    )
    deployment.api("A").send("m0", to="B")
    received = deployment.api("B").receive("A")
    sim.run(until=2000.0, max_events=20_000_000)
    assert received.resolved and received.result() == "m0"
    assert [node.view for node in deployment.unit("B").nodes] == [0, 0, 0, 0]
