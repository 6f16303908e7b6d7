"""Message-flow invariants matching the paper's Figure 3 diagrams.

Figure 3(a): a local commit is entirely intra-datacenter — three PBFT
phases plus replies, no wide-area traffic.

Figure 3(b): communicating a message costs one local commit at the
source, one signature-collection round, ONE wide-area transfer, and one
local commit at the destination. The whole point of the hierarchy is
that the wide-area message count matches the benign protocol — exactly
one transmission crosses datacenters per send (per fanout target).
"""


from repro.core.messages import (
    SignRequest,
    SignResponse,
    TransmissionMessage,
)
from repro.pbft.messages import Commit, PrePrepare, Prepare, Reply

from tests.conftest import build_pair


class FlowCounter:
    """Counts messages by type and locality via a network tamper hook
    (which observes every non-dropped message)."""

    def __init__(self, network):
        self.network = network
        self.local = {}
        self.wide_area = {}
        network.add_tamper_hook(self._observe)

    def _observe(self, src, dst, message):
        src_site = self.network.node(src).site
        dst_site = self.network.node(dst).site
        bucket = self.local if src_site == dst_site else self.wide_area
        name = type(message).__name__
        bucket[name] = bucket.get(name, 0) + 1
        return message

    def reset(self):
        self.local.clear()
        self.wide_area.clear()


def test_fig3a_local_commit_stays_inside_the_datacenter(sim):
    deployment = build_pair(sim)
    counter = FlowCounter(deployment.network)
    api = deployment.api("A")
    sim.run_until_resolved(api.log_commit("state-change"))
    sim.run(until=sim.now + 5)
    # No wide-area traffic at all for a log-commit with fg = 0.
    assert counter.wide_area == {}
    # The three PBFT phases + replies, all local.
    assert counter.local.get("PrePrepare", 0) == 3      # leader -> 3
    assert counter.local.get("Prepare", 0) == 12        # 4 x 3 broadcasts
    assert counter.local.get("Commit", 0) == 12
    assert counter.local.get("Reply", 0) >= 3           # replicas -> origin


def test_fig3b_send_crosses_the_wide_area_exactly_fanout_times(sim):
    deployment = build_pair(sim)
    counter = FlowCounter(deployment.network)
    api_a = deployment.api("A")
    api_b = deployment.api("B")
    received = api_b.receive("A")
    sim.run_until_resolved(api_a.send("message", to="B"))
    sim.run(until=sim.now + 100)
    assert received.resolved
    # Exactly `transmission_fanout` wide-area transmissions, each
    # answered by one transport-level ack; nothing else crosses
    # datacenters.
    fanout = deployment.config.transmission_fanout
    assert counter.wide_area == {
        "TransmissionMessage": fanout,
        "TransmissionAck": fanout,
    }
    # Signature collection is one local round: requests out, responses
    # back (the daemon's own signature needs no message).
    assert counter.local.get("SignRequest", 0) == 3
    assert 1 <= counter.local.get("SignResponse", 0) <= 3


def test_fig3b_receive_side_commits_locally(sim):
    deployment = build_pair(sim)
    api_a = deployment.api("A")
    api_b = deployment.api("B")
    received = api_b.receive("A")
    counter = FlowCounter(deployment.network)
    sim.run_until_resolved(api_a.send("m", to="B"))
    sim.run(until=sim.now + 100)
    assert received.resolved
    # Two local commits happened (source commits the communication
    # record, destination commits the received record): two rounds of
    # PBFT pre-prepares, one per unit.
    assert counter.local.get("PrePrepare", 0) == 6
    # The reply path (receive -> application) costs no messages at all.


def test_wide_area_message_count_scales_with_sends_not_time(sim):
    deployment = build_pair(sim)
    counter = FlowCounter(deployment.network)
    api = deployment.api("A")

    def sender():
        for index in range(5):
            yield api.send(f"m{index}", to="B")

    sim.run_until_resolved(sim.spawn(sender()))
    sim.run(until=sim.now + 200)
    fanout = deployment.config.transmission_fanout
    assert counter.wide_area.get("TransmissionMessage", 0) == 5 * fanout
    # Idle time adds nothing (no polling chatter in the normal case
    # until the reserves' first probe).
    before = dict(counter.wide_area)
    sim.run(until=sim.now + 100)
    assert counter.wide_area == before
