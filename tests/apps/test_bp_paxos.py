"""Tests for Blockplane-Paxos (Algorithm 3)."""

import pytest

from repro.apps.bp_paxos import (
    BlockplanePaxosParticipant,
    PaxosVerification,
    paxos_record,
    record_field,
)
from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.core.records import RECORD_LOG_COMMIT, RECORD_RECEIVED, LogEntry
from repro.crypto.digest import (
    _deeply_immutable,
    clear_digest_cache,
    digest_cache_stats,
    stable_digest,
)
from repro.sim.network import NetworkOptions
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology


def build_cluster(sim, network_options=None):
    topology = aws_four_dc_topology()
    deployment = BlockplaneDeployment(
        sim,
        topology,
        BlockplaneConfig(f_independent=1),
        routines_factory=lambda _name: PaxosVerification(),
        network_options=network_options,
    )
    participants = {
        site: BlockplanePaxosParticipant(
            deployment.api(site), topology.site_names
        )
        for site in topology.site_names
    }
    for participant in participants.values():
        participant.start()
    return deployment, participants


@pytest.fixture
def cluster(sim):
    return build_cluster(sim)


def elect(sim, participant):
    result = sim.run_until_resolved(
        sim.spawn(participant.leader_election()), max_events=100_000_000
    )
    return result


def test_leader_election_succeeds(sim, cluster):
    _deployment, participants = cluster
    assert elect(sim, participants["C"]) is True
    assert participants["C"].l


def test_replication_commits_a_slot(sim, cluster):
    _deployment, participants = cluster
    elect(sim, participants["C"])
    slot = sim.run_until_resolved(
        sim.spawn(participants["C"].replicate("value-1")),
        max_events=100_000_000,
    )
    assert slot == 1
    assert participants["C"].chosen[1] == "value-1"


def test_replication_latency_close_to_paxos_floor(sim, cluster):
    _deployment, participants = cluster
    leader = participants["C"]
    elect(sim, leader)
    start = sim.now
    sim.run_until_resolved(
        sim.spawn(leader.replicate("v")), max_events=100_000_000
    )
    latency = sim.now - start
    # Paxos floor for C is 61 ms; the paper reports up to 33% overhead.
    assert 61.0 <= latency <= 61.0 * 1.4


def test_acceptors_record_accepts(sim, cluster):
    _deployment, participants = cluster
    leader = participants["C"]
    elect(sim, leader)
    sim.run_until_resolved(
        sim.spawn(leader.replicate("durable")), max_events=100_000_000
    )
    sim.run(until=sim.now + 500)
    accepted_count = sum(
        1
        for participant in participants.values()
        if 1 in participant.accepted
    )
    assert accepted_count >= 3  # leader + majority responders


def test_replicate_without_leadership_returns_none(sim, cluster):
    _deployment, participants = cluster
    result = sim.run_until_resolved(
        sim.spawn(participants["V"].replicate("nope")),
        max_events=100_000_000,
    )
    assert result is None


def test_multiple_slots_in_order(sim, cluster):
    _deployment, participants = cluster
    leader = participants["V"]
    elect(sim, leader)

    def work():
        slots = []
        for index in range(3):
            slot = yield leader.replicate(f"v{index}")
            slots.append(slot)
        return slots

    slots = sim.run_until_resolved(sim.spawn(work()), max_events=200_000_000)
    assert slots == [1, 2, 3]


def test_all_protocol_traffic_is_in_local_logs(sim, cluster):
    # The whole point of the byzantization: every paxos message exists
    # as a communication record in the sender's Local Log.
    deployment, participants = cluster
    leader = participants["C"]
    elect(sim, leader)
    sim.run_until_resolved(
        sim.spawn(leader.replicate("audited")), max_events=100_000_000
    )
    sim.run(until=sim.now + 500)
    log_c = deployment.unit("C").gateway_node().local_log
    kinds = [
        record_field(entry.value, "type")
        for entry in log_c
        if entry.record_type == "communication"
    ]
    assert "paxos-prepare" in kinds
    assert "paxos-propose" in kinds


def test_verification_rejects_unwarranted_protocol_message(sim, cluster):
    deployment, _participants = cluster
    api = deployment.api("C")
    # No committed replication-start event: proposing out of thin air
    # must be vetoed by the PaxosVerification send routine.
    rogue = api.send(
        {
            "type": "paxos-propose",
            "ballot": (99, "C"),
            "slot": 1,
            "value": "evil",
            "from": "C",
        },
        to="V",
        payload_bytes=64,
    )
    sim.run(until=2000.0, max_events=50_000_000)
    assert rogue.exception is not None


def test_verification_rejects_unwarranted_record(sim, cluster):
    # The same veto for a well-formed record: it is the missing
    # replication-start warrant that rejects it, not its shape.
    deployment, _participants = cluster
    routines = deployment.unit("C").gateway_node().routines
    propose = paxos_record(
        type="paxos-propose", ballot=(99, "C"), slot=1, value="evil", sender="C"
    )
    assert routines.verify_send(propose, "V", None) is False
    routines._sendable["paxos-propose"] = 1
    assert routines.verify_send(propose, "V", None) is True
    assert routines.verify_send(dict(propose), "V", None) is False


# ----------------------------------------------------------------------
# Malformed ballots: a byzantine gateway must not poison `promised`
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "ballot", [(1, 2), ("a", "b"), (None, "x"), ((1,), "x")], ids=repr
)
@pytest.mark.parametrize("event", ["promise", "accept"])
def test_malformed_ballot_is_rejected_without_raising(event, ballot):
    routines = PaxosVerification()
    value = paxos_record(event=event, ballot=ballot, slot=1)
    assert routines.verify_log_commit(value, None) is False
    # Even if such an entry reached the log (state transfer, a faulty
    # quorum), replaying it must leave the acceptor state comparable.
    routines._replay(LogEntry(1, RECORD_LOG_COMMIT, value))
    assert routines.promised == (0, "")
    honest = paxos_record(event=event, ballot=(1, "V"), slot=1)
    assert routines.verify_log_commit(honest, None) is True


def test_reject_event_must_be_a_refusal_at_the_replayed_state():
    routines = PaxosVerification()
    refusal = paxos_record(event="reject", ballot=(1, "C"))
    assert routines.verify_log_commit(refusal, None) is False
    # A proposer's ballot-update replays as its promise to that ballot.
    update = paxos_record(event="ballot-update", ballot=(1, "V"))
    routines._replay(LogEntry(1, RECORD_LOG_COMMIT, update))
    assert routines.verify_log_commit(refusal, None) is True
    grant = paxos_record(event="promise", ballot=(1, "C"))
    assert routines.verify_log_commit(grant, None) is False
    # The committed refusal warrants exactly one reply of its kind.
    routines._replay(LogEntry(2, RECORD_LOG_COMMIT, refusal))
    assert routines._sendable == {"paxos-promise": 1}


def test_true_is_not_a_round_number():
    routines = PaxosVerification()
    value = paxos_record(event="promise", ballot=(True, "V"))
    assert routines.verify_log_commit(value, None) is False


# ----------------------------------------------------------------------
# Collectors are dropped when their future resolves
# ----------------------------------------------------------------------
def test_collectors_do_not_accumulate(sim, cluster):
    _deployment, participants = cluster
    leader = participants["V"]
    elect(sim, leader)
    for index in range(4):
        sim.run_until_resolved(
            sim.spawn(leader.replicate(f"v{index}")), max_events=100_000_000
        )
    # Let the late (post-quorum) promises and accepts arrive too.
    sim.run(until=sim.now + 500)
    assert len(leader.chosen) == 4
    assert leader._collectors == {}


# ----------------------------------------------------------------------
# The payload contract the paxos_aws benchmark measures
# ----------------------------------------------------------------------
ROUNDS = 5


def run_recorded(wire_fidelity=False):
    """Election + ROUNDS rounds led by V on a fresh four-DC deployment.

    Returns the deployment, every value handed to ``log_commit``/``send``
    (the API is wrapped here; production has no hook), the virtual time
    each slot committed at, and the digest-memo (hits, misses) deltas of
    the election and of each round (each settled before the next).
    """
    sim = Simulator(seed=42)
    deployment, participants = build_cluster(
        sim, NetworkOptions(wire_fidelity=wire_fidelity)
    )
    handed = []
    for participant in participants.values():
        api = participant.api
        for name in ("log_commit", "send"):
            setattr(api, name, _recording(getattr(api, name), handed))
    leader = participants["V"]
    clear_digest_cache()
    memo = []
    seen = digest_cache_stats()

    def settle():
        nonlocal seen
        sim.run(until=sim.now + 500)
        now = digest_cache_stats()
        memo.append(
            (now["hits"] - seen["hits"], now["misses"] - seen["misses"])
        )
        seen = now

    assert elect(sim, leader) is True
    settle()
    committed_at = {}
    for index in range(ROUNDS):
        slot = sim.run_until_resolved(
            sim.spawn(leader.replicate(f"value-{index}")),
            max_events=100_000_000,
        )
        committed_at[slot] = sim.now
        settle()
    return deployment, handed, committed_at, memo


def _recording(method, handed):
    def wrapper(value, *args, **kwargs):
        handed.append(value)
        return method(value, *args, **kwargs)

    return wrapper


def test_every_payload_handed_to_the_middleware_is_deeply_immutable():
    _deployment, handed, committed_at, _memo = run_recorded()
    assert sorted(committed_at) == list(range(1, ROUNDS + 1))
    # 8 election payloads + 11 per round (see the memo test below).
    assert len(handed) >= 8 + 11 * ROUNDS
    for value in handed:
        assert _deeply_immutable(value), value


def test_digest_memo_applies_to_paxos_payloads():
    _deployment, _handed, _committed_at, memo = run_recorded()
    hits = sum(h for h, _m in memo)
    misses = sum(m for _h, m in memo)
    assert hits / (hits + misses) >= 0.5
    # Exact and seed-independent, summed over both memos. Per round, the
    # value memo misses once per distinct payload object (15) and the
    # formula memo once per distinct record formula (55: request, entry,
    # chain-link and transmission digests), which the other replicas'
    # own wrappers then hit. Each origin's reply check (the quorum's
    # digest against its own request's) only hits: +24 hits in the
    # election, +22 per round, no new miss. With
    # dict payloads this was (0, 348) + 5 x (0, 336). To re-derive after
    # a deliberate protocol change, print(memo) here.
    assert memo == [(454, 74)] + [(436, 70)] * ROUNDS


def test_wire_fidelity_preserves_records_and_timing():
    _plain, handed, committed_at, _memo = run_recorded()
    deployment, handed_wire, committed_at_wire, _memo = run_recorded(
        wire_fidelity=True
    )
    assert deployment.network.wire_transcodes > 0
    assert committed_at_wire == committed_at
    sent = {stable_digest(value): value for value in handed_wire}
    assert set(sent) == {stable_digest(value) for value in handed}
    decoded = [
        entry.value.record.message
        for site in ("C", "O", "V", "I")
        for entry in deployment.unit(site).gateway_node().local_log
        if entry.record_type == RECORD_RECEIVED
    ]
    assert len(decoded) >= 6 * (1 + ROUNDS)
    for message in decoded:
        assert _deeply_immutable(message), message
        digest = stable_digest(message)
        assert digest in sent
        # The codec really ran: an equal value, not the sender's object.
        assert message is not sent[digest]
        assert message == sent[digest]


# ----------------------------------------------------------------------
# A lower ballot loses; the next leader keeps every chosen slot
# ----------------------------------------------------------------------
def run_bounded(sim, routine, window_ms=5000.0):
    """Run ``routine`` for at most ``window_ms`` of virtual time; return
    its result, failing (instead of hanging) if it never finished."""
    process = sim.spawn(routine)
    sim.run(until=sim.now + window_ms, max_events=200_000_000)
    assert process.resolved, "routine still running after its window"
    return process.result()


def test_lower_ballot_loses_and_new_leader_keeps_chosen_slots():
    sim = Simulator(seed=42)
    _deployment, participants = build_cluster(sim)
    old, new = participants["V"], participants["C"]
    assert run_bounded(sim, old.leader_election()) is True
    assert [run_bounded(sim, old.replicate(v)) for v in "abc"] == [1, 2, 3]
    for participant in participants.values():
        assert sorted(participant.accepted) == [1, 2, 3]
    # (1, "C") is below every acceptor's (1, "V"): the refusals, each
    # committed as a `reject` event, must end the election.
    assert run_bounded(sim, new.leader_election()) is False
    assert new.core.ballot == (1, "C")
    # The next round, (2, "C"), wins and adopts slots 1-3 one by one.
    assert run_bounded(sim, new.leader_election()) is True
    assert new.core.adopted == [(1, "a"), (2, "b"), (3, "c")]
    assert {slot: new.chosen[slot] for slot in (1, 2, 3)} == old.chosen
    assert run_bounded(sim, new.replicate("x")) == 4
    assert new.chosen == {1: "a", 2: "b", 3: "c", 4: "x"}


def test_proposer_refused_by_its_own_acceptor_sends_nothing():
    sim = Simulator(seed=42)
    _deployment, participants = build_cluster(sim)
    leader = participants["V"]
    sent = []
    leader.api.send = _recording(leader.api.send, sent)
    leader.core.promised = (5, "Z")
    assert run_bounded(sim, leader.leader_election()) is False
    assert sent == []
    # A leader whose own acceptor has since promised higher: no propose.
    leader.core.promised = (0, "")
    assert run_bounded(sim, leader.leader_election()) is True
    del sent[:]
    leader.core.promised = (leader.core.ballot[0] + 5, "Z")
    assert run_bounded(sim, leader.replicate("v")) is None
    assert not leader.l
    assert sent == []
