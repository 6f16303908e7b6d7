"""Unit tests for the sans-IO Paxos core: no simulator, no network."""

import pytest

from repro.errors import ProtocolError
from repro.paxos.core import PaxosAcceptor, PaxosCore
from repro.pbft.quorums import majority

PEERS = ["A", "B", "C", "D", "E"]


def test_acceptor_promises_then_accepts():
    acceptor = PaxosAcceptor()
    assert acceptor.promise((1, "A")) == {}
    assert acceptor.promised == (1, "A")
    assert acceptor.accept((1, "A"), 1, "x") is True
    assert acceptor.accepted == {1: ((1, "A"), "x")}
    # A later promise reports everything accepted, as a copy.
    reported = acceptor.promise((2, "B"))
    assert reported == {1: ((1, "A"), "x")}
    reported.clear()
    assert acceptor.accepted == {1: ((1, "A"), "x")}


def test_acceptor_refuses_below_its_promise():
    acceptor = PaxosAcceptor()
    acceptor.promise((2, "B"))
    assert acceptor.admits((2, "A")) is False
    assert acceptor.promise((1, "Z")) is None
    assert acceptor.accept((2, "A"), 1, "x") is False
    assert acceptor.accepted == {}
    assert acceptor.promised == (2, "B")


def test_refusal_deposes_and_next_round_beats_the_promise():
    core = PaxosCore("A", PEERS)
    assert core.start_election() is None
    ballot = core.ballot
    assert ballot == (1, "A")
    assert core.vote("B", ballot, None) is None
    assert core.vote("C", ballot, None) is True and core.leader
    # One refusal naming a higher ballot deposes the leader; its open
    # tally is lost, and the next election's round is above it.
    slot = core.claim_slot()
    assert core.propose(slot, "x") is None
    assert core.vote("B", ballot, slot, promised=(4, "E")) is False
    assert not core.leader
    core.start_election()
    assert core.ballot == (5, "A") > (4, "E")


def test_election_lost_once_a_majority_cannot_grant():
    core = PaxosCore("A", PEERS)
    core.start_election()
    ballot = core.ballot
    # A refusal at our own round number keeps the ballot; two refusals
    # leave three possible grants (still a majority), three do not.
    assert core.vote("B", ballot, None, promised=(1, "B")) is None
    assert core.vote("C", ballot, None, promised=(1, "C")) is None
    assert core.vote("D", ballot, None, promised=(1, "D")) is False
    # The tally is closed: a late grant decides nothing.
    assert core.vote("E", ballot, None) is None


def test_adoption_takes_the_highest_ballot_per_slot():
    core = PaxosCore("A", PEERS)
    core.start_election()
    ballot = core.ballot
    from_b = [(1, ((1, "B"), "b1")), (3, ((1, "B"), "b3"))]
    from_c = [(1, ((1, "C"), "c1")), (2, ((1, "C"), "c2"))]
    assert core.vote("B", ballot, None, accepted=from_b) is None
    assert core.vote("C", ballot, None, accepted=from_c) is True
    # Each slot keeps its own highest-ballot value, not one value overall.
    assert core.adopted == [(1, "c1"), (2, "c2"), (3, "b3")]
    assert core.claim_slot() == 4


def test_value_chosen_at_majority_of_n():
    for n in (1, 2, 3, 4, 5):
        peers = [f"p{index}" for index in range(n)]
        core = PaxosCore("p0", peers)
        outcome = core.start_election()
        for voter in peers[1:]:
            if outcome is not None:
                break
            outcome = core.vote(voter, core.ballot, None)
        assert outcome is True and core.leader
        slot = core.claim_slot()
        outcome = core.propose(slot, "v")
        granted = 1
        for voter in peers[1:]:
            if outcome is not None:
                break
            outcome = core.vote(voter, core.ballot, slot)
            granted += 1
        assert outcome is True and granted == majority(n)
        assert core.chosen == {slot: "v"}


def test_duplicate_answers_count_once():
    core = PaxosCore("A", PEERS)
    core.start_election()
    ballot = core.ballot
    for _ in range(4):
        assert core.vote("B", ballot, None) is None
    assert core.vote("C", ballot, None) is True


def test_core_must_be_a_participant():
    with pytest.raises(ProtocolError):
        PaxosCore("Z", PEERS)


def test_own_refusal_at_the_same_round_is_decisive():
    # Our acceptor promised (1, "B"); our next ballot (1, "A") is of the
    # same round and below it, so neither tally can win.
    core = PaxosCore("A", PEERS)
    assert core.promise((1, "B")) == {}
    assert core.start_election() is False
    assert core.ballot == (1, "A") and not core.leader
    assert core.vote("C", (1, "A"), None) is None  # the tally is closed
    # The next round beats the promise.
    assert core.start_election() is None and core.ballot == (2, "A")
    assert core.vote("B", (2, "A"), None) is None
    assert core.vote("C", (2, "A"), None) is True and core.leader
    # A proposal our own acceptor refuses at the same round fails too.
    slot = core.claim_slot()
    core.promised = (2, "B")
    assert core.propose(slot, "x") is False
    assert core.vote("C", (2, "A"), slot) is None
    assert slot not in core.chosen
