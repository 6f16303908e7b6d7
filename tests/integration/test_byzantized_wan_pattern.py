"""Section VI-D as an equality: Blockplane-Paxos crosses the wide area
exactly as flat Paxos does.

Both hosts run the same election and rounds on the four-DC topology.
Their WAN traffic, projected to ``(source site, destination site,
Paxos kind)`` per round, is the same multiset; all Blockplane adds
across sites is the transport around each record (``transmission_fanout``
copies, one ack per copy) and the reserve daemons' gap probes, which
run on their poll timer rather than per round.
"""

import collections

import pytest

from repro.apps.bp_paxos import (
    BlockplanePaxosParticipant,
    PaxosVerification,
    record_field,
)
from repro.baselines import FlatPaxosDeployment
from repro.core import BlockplaneConfig, BlockplaneDeployment
from repro.core.messages import TransmissionAck, TransmissionMessage
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology

ROUNDS = 5
SETTLE_MS = 500.0

#: Flat message kind -> the Blockplane record type of the same step.
_FLAT_KINDS = {
    "paxos_prepare": "paxos-prepare",
    "promise": "paxos-promise",
    "accept": "paxos-propose",
    "accepted": "paxos-accept",
}


def _round(ballot, slot):
    """Phase 1 traffic belongs to its ballot's round, phase 2 to its slot."""
    return ("election", ballot[0]) if slot is None else ("slot", slot)


def _wan_tap(network):
    """Record every cross-site ``(source site, destination site, message)``."""
    sent = []

    def tap(src, dst, message):
        src_site = network.node(src).site
        dst_site = network.node(dst).site
        if src_site != dst_site:
            sent.append((src_site, dst_site, message))
        return message

    network.add_tamper_hook(tap)
    return sent


def flat_rounds(leader_site):
    sim = Simulator(seed=7)
    deployment = FlatPaxosDeployment(sim, aws_four_dc_topology(), leader_site)
    sent = _wan_tap(deployment.network)
    sim.run_until_resolved(deployment.elect_leader())
    for index in range(ROUNDS):
        sim.run_until_resolved(deployment.replicate(f"v{index}", 1000))
    sim.run(until=sim.now + SETTLE_MS)
    rounds = collections.defaultdict(collections.Counter)
    for src, dst, message in sent:
        kind = _FLAT_KINDS.get(message.kind, message.kind)
        if kind in ("paxos-prepare", "paxos-promise"):
            key = _round(message.ballot, None)
        else:
            key = _round(None, message.slot)
        rounds[key][(src, dst, kind)] += 1
    return dict(rounds)


def blockplane_rounds(leader_site):
    sim = Simulator(seed=7)
    topology = aws_four_dc_topology()
    config = BlockplaneConfig(f_independent=1)
    deployment = BlockplaneDeployment(
        sim, topology, config, routines_factory=lambda _name: PaxosVerification()
    )
    participants = {
        site: BlockplanePaxosParticipant(deployment.api(site), topology.site_names)
        for site in topology.site_names
    }
    for participant in participants.values():
        participant.start()
    sent = _wan_tap(deployment.network)
    leader = participants[leader_site]

    def work():
        assert (yield sim.spawn(leader.leader_election())) is True
        for index in range(ROUNDS):
            yield sim.spawn(leader.replicate(f"v{index}", 1000))

    sim.run_until_resolved(sim.spawn(work()), max_events=400_000_000)
    sim.run(until=sim.now + SETTLE_MS)

    records = {}
    copies = acks = 0
    other = collections.Counter()
    for _src, _dst, message in sent:
        if isinstance(message, TransmissionMessage):
            record = message.sealed.record
            records[(record.source, record.source_position)] = record
            copies += 1
        elif isinstance(message, TransmissionAck):
            acks += 1
        else:
            other[message.kind] += 1
    rounds = collections.defaultdict(collections.Counter)
    for record in records.values():
        paxos = record.message
        ballot = record_field(paxos, "ballot")
        slot = record_field(paxos, "slot")
        kind = record_field(paxos, "type")
        rounds[_round(ballot, slot)][(record.source, record.destination, kind)] += 1
    return dict(rounds), len(records), copies, acks, other, config


@pytest.mark.parametrize("leader_site", ["V", "C"])
def test_byzantized_wan_pattern_is_the_benign_one(leader_site):
    flat = flat_rounds(leader_site)
    rounds, records, copies, acks, other, config = blockplane_rounds(leader_site)
    # One election and ROUNDS slots, each 3 requests and 3 answers.
    assert len(flat) == 1 + ROUNDS
    assert all(sum(counts.values()) == 6 for counts in flat.values())
    assert rounds == flat
    # What else crosses sites: the transport around each record ...
    assert copies == config.transmission_fanout * records
    assert acks == copies
    # ... and the reserve daemons' poll-timer probes, nothing more.
    assert set(other) <= {"gap_query", "gap_response"}
