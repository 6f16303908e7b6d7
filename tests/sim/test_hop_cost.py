"""Work proof for one simulated message hop.

Wall-clock says whether the transport got faster on this machine today;
this test says *why*, deterministically: how many ``repro.sim`` Python
frames one delivered message costs between ``Node.broadcast`` and the
handler, and how many :class:`Event` objects the hop builds (none — only
a cancellable timer needs one).
"""

import gc
import os
import sys

import repro.sim
from repro.sim import Event, Message, Network, Node, Simulator
from repro.sim.topology import symmetric_topology

SIM_DIR = os.path.dirname(repro.sim.__file__) + os.sep
ROUNDS = 20


class Ping(Message):
    pass


class Sink(Node):
    def __init__(self, *args):
        super().__init__(*args)
        self.received = 0

    def handle_ping(self, msg, src):
        self.received += 1


def _deployment():
    sim = Simulator(seed=3)
    network = Network(sim, symmetric_topology(["A", "B", "C"], 20.0))
    nodes = [
        Sink(sim, network, f"{site}-{i}", site)
        for site in "ABC"
        for i in range(2)
    ]
    return sim, nodes


def _profile_broadcasts(sim, nodes):
    """Every node broadcasts to all others ROUNDS times, then the run
    drains under ``sys.setprofile``; returns the ``repro.sim`` frames
    entered and the messages delivered."""
    frames = []

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(SIM_DIR):
            frames.append(frame.f_code)

    ids = [node.node_id for node in nodes]
    gc.disable()
    sys.setprofile(profiler)
    try:
        for _ in range(ROUNDS):
            for node in nodes:
                node.broadcast(ids, Ping(payload_bytes=96))
        sim.run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return frames, sum(node.received for node in nodes)


def test_one_hop_costs_under_four_sim_calls():
    sim, nodes = _deployment()
    frames, delivered = _profile_broadcasts(sim, nodes)
    assert delivered == ROUNDS * len(nodes) * (len(nodes) - 1)
    # Per delivered message: the broadcast and each site's composite
    # arrival amortised over their destinations, plus the one delivery
    # frame between the event loop and the handler. Paying size,
    # propagation, an Event and ``on_message`` per destination costs 7.8.
    assert len(frames) / delivered < 4.0, len(frames) / delivered
    names = [code.co_name for code in frames]
    assert names.count("_deliver") == delivered
    # ``on_message`` only resolves each node's first ``ping``.
    assert names.count("on_message") == len(nodes)


def test_a_hop_builds_no_event(monkeypatch):
    built = []
    init = Event.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    sim, nodes = _deployment()
    _frames, delivered = _profile_broadcasts(sim, nodes)
    assert delivered > 0
    assert built == []
