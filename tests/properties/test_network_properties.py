"""Property-based tests for the network model (hypothesis)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.network import Network, NetworkOptions
from repro.sim.node import Message, Node
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology


@dataclasses.dataclass
class Tagged(Message):
    n: int = 0


class Sink(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []
        self.seen_at = []

    def handle_tagged(self, msg, src):
        self.seen.append((src, msg.n))
        self.seen_at.append(self.sim.now)


def build(rtt, seed=0, options=None):
    sim = Simulator(seed=seed)
    network = Network(sim, symmetric_topology(["A", "B"], rtt), options)
    a = Sink(sim, network, "a", "A")
    b = Sink(sim, network, "b", "B")
    return sim, a, b


@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=2_000_000),
        min_size=1,
        max_size=20,
    ),
    rtt=st.floats(min_value=1.0, max_value=200.0),
)
@settings(max_examples=60, deadline=None)
def test_same_link_traffic_is_fifo(sizes, rtt):
    # One sender, one receiver: deliveries preserve send order no
    # matter how payload sizes vary (egress and ingress both serialize).
    sim, a, b = build(rtt)
    for index, size in enumerate(sizes):
        a.send("b", Tagged(payload_bytes=size, n=index))
    sim.run()
    assert [n for _src, n in b.seen] == list(range(len(sizes)))


@given(
    sizes=st.lists(
        st.integers(min_value=1, max_value=1_000_000),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=60, deadline=None)
def test_delivery_time_at_least_propagation_plus_serialization(sizes):
    options = NetworkOptions(bandwidth_mb_per_s=100.0)
    sim, a, b = build(rtt=20.0, options=options)
    for index, size in enumerate(sizes):
        a.send("b", Tagged(payload_bytes=size, n=index))
    sim.run()
    bytes_per_ms = 100.0 * 1e3
    total_bytes = sum(size + 128 for size in sizes)
    # The last delivery cannot beat egress serialization of everything
    # plus one propagation delay.
    lower_bound = total_bytes / bytes_per_ms + 10.0
    last_delivery = sim.now
    assert last_delivery >= lower_bound - 1e-6


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_network_is_deterministic_per_seed(seed):
    def run():
        sim, a, b = build(
            rtt=30.0, seed=seed, options=NetworkOptions(jitter_ms=3.0)
        )
        for index in range(10):
            a.send("b", Tagged(payload_bytes=index * 1000, n=index))
        sim.run()
        return sim.now, [n for _src, n in b.seen]

    assert run() == run()


@given(
    drop_every=st.integers(min_value=2, max_value=5),
    count=st.integers(min_value=4, max_value=20),
)
@settings(max_examples=30, deadline=None)
def test_drop_filters_drop_exactly_what_they_match(drop_every, count):
    sim, a, b = build(rtt=10.0)
    sim  # noqa: B018
    a.network.add_drop_filter(
        lambda src, dst, msg: msg.n % drop_every == 0
    )
    for index in range(count):
        a.send("b", Tagged(n=index))
    sim.run()
    expected = [n for n in range(count) if n % drop_every != 0]
    assert [n for _src, n in b.seen] == expected


@pytest.mark.parametrize("dst_id", ["a", "a2", "b"])
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=2_000_000), min_size=1, max_size=12
    )
)
@settings(max_examples=40, deadline=None)
def test_unicast_delivery_time_is_the_closed_form(dst_id, sizes):
    # Loopback ("a"), same-site ("a2") and cross-site ("b") unicasts,
    # sent back to back at t=0: egress cursor + size/bandwidth, one-way
    # propagation, then the receiver's ingress queue + processing.
    options = NetworkOptions(bandwidth_mb_per_s=100.0)
    sim, a, b = build(rtt=20.0, options=options)
    a2 = Sink(sim, a.network, "a2", "A")
    dst = {"a": a, "a2": a2, "b": b}[dst_id]
    for index, size in enumerate(sizes):
        a.send(dst_id, Tagged(payload_bytes=size, n=index))
    sim.run()
    bytes_per_ms = options.bytes_per_ms()
    one_way = a.network.topology.one_way_ms("A", dst.site)
    egress_free = ingress_free = 0.0
    expected = []
    for size in sizes:
        wire = size + options.per_message_overhead_bytes
        if dst is a:  # no NIC involved
            expected.append(options.receiver_processing_ms)
            continue
        egress_free += wire / bytes_per_ms
        ingress_free = (
            max(egress_free + one_way, ingress_free)
            + wire / bytes_per_ms
            + options.receiver_processing_ms
        )
        expected.append(ingress_free)
    assert dst.seen_at == expected


@pytest.mark.parametrize(
    "scenario", ["plain", "drop", "tamper-none", "crashed-source", "jitter"]
)
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=500_000), min_size=1, max_size=10
    )
)
@settings(max_examples=25, deadline=None)
def test_send_is_a_one_destination_broadcast(scenario, sizes):
    def run(transmit):
        options = NetworkOptions(jitter_ms=3.0 if scenario == "jitter" else 0.0)
        sim, a, b = build(rtt=30.0, seed=5, options=options)
        network = a.network
        if scenario == "drop":
            network.add_drop_filter(lambda src, dst, msg: msg.n % 2 == 0)
        elif scenario == "tamper-none":
            network.add_tamper_hook(
                lambda src, dst, msg: None if msg.n % 3 == 0 else msg
            )
        elif scenario == "crashed-source":
            a.crash()
        for index, size in enumerate(sizes):
            transmit(network, Tagged(payload_bytes=size, n=index))
        sim.run()
        return (
            b.seen, b.seen_at, sim.events_processed, sim.rng.getstate(),
            network.messages_sent, network.bytes_sent,
            network.messages_delivered,
        )

    assert run(lambda network, msg: network.send("a", "b", msg)) == run(
        lambda network, msg: network.broadcast("a", ["b"], msg)
    )
