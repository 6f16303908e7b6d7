"""Unit tests for the network model: latency, NIC serialization,
drops, tampering, and crash interactions."""

import dataclasses

import pytest

from repro.errors import ConfigurationError, UnknownNodeError
from repro.sim.network import Network, NetworkOptions
from repro.sim.node import Message, Node
from repro.sim.simulator import Simulator
from repro.sim.topology import aws_four_dc_topology, symmetric_topology


@dataclasses.dataclass
class Probe(Message):
    tag: str = ""


class Recorder(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def handle_probe(self, msg, src):
        self.received.append((self.sim.now, msg.tag, src))


def make_pair(rtt=20.0, options=None):
    sim = Simulator(seed=1)
    network = Network(sim, symmetric_topology(["A", "B"], rtt), options)
    a = Recorder(sim, network, "a1", "A")
    b = Recorder(sim, network, "b1", "B")
    return sim, network, a, b


def test_wide_area_delivery_takes_half_rtt():
    sim, _network, a, b = make_pair(rtt=20.0)
    a.send("b1", Probe(tag="x"))
    sim.run()
    assert len(b.received) == 1
    # one-way 10ms + serialization + receiver processing
    assert 10.0 <= b.received[0][0] <= 10.2


def test_intra_site_delivery_is_fast():
    sim = Simulator(seed=1)
    network = Network(sim, symmetric_topology(["A", "B"], 20.0))
    a1 = Recorder(sim, network, "a1", "A")
    a2 = Recorder(sim, network, "a2", "A")
    a1.send("a2", Probe(tag="x"))
    sim.run()
    assert a2.received[0][0] < 1.0


def test_large_payload_pays_serialization():
    sim, _network, a, b = make_pair(rtt=20.0)
    a.send("b1", Probe(payload_bytes=6_400_000, tag="big"))  # 10ms at 640MB/s
    sim.run()
    assert b.received[0][0] >= 20.0  # 10 propagation + 2x10 NIC


def test_egress_serialization_queues_back_to_back_sends():
    sim, _network, a, b = make_pair(rtt=20.0)
    for index in range(3):
        a.send("b1", Probe(payload_bytes=640_000, tag=str(index)))  # 1ms each
    sim.run()
    times = [t for t, _tag, _src in b.received]
    assert times[1] - times[0] >= 0.9
    assert times[2] - times[1] >= 0.9


def test_ingress_does_not_block_earlier_arrivals_behind_later_sends():
    # A message sent early over a slow link must not reserve the
    # receiver NIC ahead of a later-sent but earlier-arriving message.
    sim = Simulator(seed=1)
    network = Network(sim, aws_four_dc_topology())
    recorder = Recorder(sim, network, "c1", "C")
    far = Recorder(sim, network, "i1", "I")
    near = Recorder(sim, network, "o1", "O")
    far.send("c1", Probe(tag="far"))  # arrives ~65ms
    sim.schedule(30.0, near.send, "c1", Probe(tag="near"))  # arrives ~39.5
    sim.run()
    tags = [tag for _t, tag, _src in recorder.received]
    assert tags == ["near", "far"]
    assert recorder.received[0][0] < 45.0


def test_loopback_send_is_immediate_processing_only():
    sim, _network, a, _b = make_pair()
    a.send("a1", Probe(tag="self"))
    sim.run()
    assert a.received[0][0] <= 0.1


def test_crashed_destination_drops_message():
    sim, _network, a, b = make_pair()
    b.crash()
    a.send("b1", Probe(tag="x"))
    sim.run()
    assert b.received == []


def test_crashed_source_cannot_send():
    sim, network, a, b = make_pair()
    a.crash()
    network.send("a1", "b1", Probe(tag="x"))
    sim.run()
    assert b.received == []


def test_unknown_destination_raises():
    sim, network, a, _b = make_pair()
    with pytest.raises(UnknownNodeError):
        a.send("nope", Probe())


def test_duplicate_registration_rejected():
    sim = Simulator()
    network = Network(sim, symmetric_topology(["A", "B"], 10.0))
    Recorder(sim, network, "a1", "A")
    with pytest.raises(UnknownNodeError):
        Recorder(sim, network, "a1", "A")


def test_drop_filter_blocks_matching_traffic():
    sim, network, a, b = make_pair()
    network.add_drop_filter(lambda src, dst, msg: msg.tag == "bad")
    a.send("b1", Probe(tag="bad"))
    a.send("b1", Probe(tag="good"))
    sim.run()
    assert [tag for _t, tag, _src in b.received] == ["good"]


def test_drop_filter_removal():
    sim, network, a, b = make_pair()
    drop = network.add_drop_filter(lambda *_: True)
    network.remove_drop_filter(drop)
    a.send("b1", Probe(tag="x"))
    sim.run()
    assert len(b.received) == 1


def test_tamper_hook_mutates_messages():
    sim, network, a, b = make_pair()
    network.add_tamper_hook(
        lambda src, dst, msg: Probe(tag="tampered") if msg.tag == "x" else msg
    )
    a.send("b1", Probe(tag="x"))
    sim.run()
    assert b.received[0][1] == "tampered"


def test_tamper_hook_returning_none_swallows():
    sim, network, a, b = make_pair()
    network.add_tamper_hook(lambda *_: None)
    a.send("b1", Probe(tag="x"))
    sim.run()
    assert b.received == []


def test_message_counters():
    sim, network, a, b = make_pair()
    a.send("b1", Probe())
    a.send("b1", Probe())
    sim.run()
    assert network.messages_sent == 2
    assert network.messages_delivered == 2
    assert network.bytes_sent > 0


def test_jitter_adds_bounded_delay():
    options = NetworkOptions(jitter_ms=5.0)
    sim, _network, a, b = make_pair(rtt=20.0, options=options)
    a.send("b1", Probe())
    sim.run()
    assert 10.0 <= b.received[0][0] <= 15.3


def test_nodes_at_site():
    sim = Simulator()
    network = Network(sim, symmetric_topology(["A", "B"], 10.0))
    a1 = Recorder(sim, network, "a1", "A")
    a2 = Recorder(sim, network, "a2", "A")
    Recorder(sim, network, "b1", "B")
    assert set(n.node_id for n in network.nodes_at_site("A")) == {"a1", "a2"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("bandwidth_mb_per_s", float("nan")),
        ("bandwidth_mb_per_s", float("inf")),
        ("bandwidth_mb_per_s", 0.0),
        ("bandwidth_mb_per_s", -640.0),
        ("per_message_overhead_bytes", -1),
        ("receiver_processing_ms", -0.01),
        ("receiver_processing_ms", float("nan")),
        ("jitter_ms", float("nan")),
        ("jitter_ms", -1.0),
    ],
)
def test_network_options_reject_non_finite_or_out_of_range(field, value):
    with pytest.raises(ConfigurationError, match=field):
        NetworkOptions(**{field: value})


def test_network_options_defaults_are_valid_and_unchanged():
    assert vars(NetworkOptions()) == {
        "bandwidth_mb_per_s": 640.0,
        "per_message_overhead_bytes": 128,
        "receiver_processing_ms": 0.01,
        "jitter_ms": 0.0,
        "wire_fidelity": False,
    }
