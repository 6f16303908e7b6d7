"""Unit tests for the fault injector."""

import dataclasses

from repro.sim.faults import FaultInjector
from repro.sim.network import Network
from repro.sim.node import Message, Node
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology


@dataclasses.dataclass
class Tick(Message):
    n: int = 0


class Counter(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = []

    def handle_tick(self, msg, src):
        self.seen.append(msg.n)


def make_env():
    sim = Simulator(seed=3)
    network = Network(sim, symmetric_topology(["A", "B"], 10.0))
    a = Counter(sim, network, "a", "A")
    b = Counter(sim, network, "b", "B")
    a2 = Counter(sim, network, "a2", "A")
    injector = FaultInjector(sim, network)
    return sim, network, injector, a, b, a2


def installed(network):
    return len(network.drop_filters) + len(network.tamper_hooks)


def test_crash_and_recover_at():
    sim, _n, injector, a, b, _a2 = make_env()
    injector.crash_at(b, 5.0)
    injector.recover_at(b, 20.0)
    sim.schedule(10.0, a.send, "b", Tick(n=1))  # dropped: b down
    sim.schedule(25.0, a.send, "b", Tick(n=2))  # delivered
    sim.run()
    assert b.seen == [2]


def test_crash_site_at_takes_down_all_nodes():
    sim, _n, injector, a, _b, a2 = make_env()
    injector.crash_site_at("A", 1.0)
    sim.run()
    assert a.crashed and a2.crashed


def test_recover_site_at():
    sim, _n, injector, a, _b, a2 = make_env()
    injector.crash_site_at("A", 1.0)
    injector.recover_site_at("A", 2.0)
    sim.run()
    assert not a.crashed and not a2.crashed


def test_partition_window():
    sim, _n, injector, a, b, _a2 = make_env()
    injector.partition(["a"], ["b"], start=5.0, end=15.0)
    sim.schedule(0.0, a.send, "b", Tick(n=1))   # before: delivered
    sim.schedule(7.0, a.send, "b", Tick(n=2))   # during: dropped
    sim.schedule(20.0, a.send, "b", Tick(n=3))  # after: delivered
    sim.run()
    assert b.seen == [1, 3]


def test_partition_is_bidirectional():
    sim, _n, injector, a, b, _a2 = make_env()
    injector.partition(["a"], ["b"], start=0.0)
    b.send("a", Tick(n=9))
    sim.run()
    assert a.seen == []


def test_drop_matching_predicate():
    sim, _n, injector, a, b, _a2 = make_env()
    injector.tamper_matching(
        lambda src, dst, msg: msg.n % 2 == 0, lambda _msg: None
    )
    for n in range(4):
        a.send("b", Tick(n=n))
    sim.run()
    assert b.seen == [1, 3]


def test_probabilistic_drop_is_seeded():
    def run_once():
        sim, _n, injector, a, b, _a2 = make_env()
        injector.drop_probabilistically(0.5)
        for n in range(20):
            a.send("b", Tick(n=n))
        sim.run()
        return b.seen

    assert run_once() == run_once()
    seen = run_once()
    assert 0 < len(seen) < 20


def test_tamper_matching():
    sim, _n, injector, a, b, _a2 = make_env()
    injector.tamper_matching(
        lambda src, dst, msg: msg.n == 1, lambda msg: Tick(n=99)
    )
    a.send("b", Tick(n=1))
    a.send("b", Tick(n=2))
    sim.run()
    assert sorted(b.seen) == [2, 99]


def test_windowed_hooks_uninstall_themselves():
    sim, network, injector, a, b, _a2 = make_env()
    injector.partition(["a"], ["b"], start=5.0, end=15.0)
    injector.drop_probabilistically(0.9, start=5.0, end=20.0)
    injector.tamper_matching(
        lambda src, dst, msg: True,
        lambda msg: Tick(n=-1),
        start=5.0,
        end=25.0,
    )
    assert installed(network) == 3
    sim.schedule(30.0, a.send, "b", Tick(n=7))
    sim.run()
    # All windows closed: every hook removed itself, and late traffic
    # flows untouched.
    assert installed(network) == 0
    assert b.seen == [7]


def test_unbounded_hooks_stay_installed():
    sim, network, injector, a, b, _a2 = make_env()
    injector.tamper_matching(lambda *_: True, lambda _msg: None)
    a.send("b", Tick(n=1))
    sim.run()
    sim.schedule(1_000.0, a.send, "b", Tick(n=2))
    sim.run()
    assert installed(network) == 1
    assert b.seen == []
