"""The PBFT engine driven with no simulator and no telemetry hub.

``PBFTEngine`` reaches the world only through the ports its constructor
is handed, so a group of them runs on three lists: a message pool, a
timer list and a counter clock. The test chooses every delivery order
and fires every timer by hand — the seed of a schedule explorer.
"""

import ast
import functools
import pathlib
import random

import pytest

import repro.pbft.engine as engine_module
from repro.pbft.config import PBFTConfig
from repro.pbft.engine import PBFTApp, PBFTEngine, request_digest
from repro.pbft.messages import (
    RECORD_TYPE_COMMIT,
    ClientRequest,
    NewView,
    PrePrepare,
    Prepare,
    Reply,
)
from repro.pbft.quorums import commit_quorum


class Settable:
    """Stands in for a future and for a timer handle."""

    resolved = cancelled = False
    value = None

    def resolve(self, value):
        self.resolved, self.value = True, value

    reject = resolve

    def cancel(self):
        self.cancelled = True


class Router:
    """A message pool, a timer list and a counter clock."""

    def __init__(self, n, config=None, app=PBFTApp):
        self.now = 0.0
        self.pool = []  # (src, dst, message), delivered in any order
        self.timers = []  # (handle, fn, args), fired only by hand
        self.down = set()
        self.sent = []  # (src, message), one per send or broadcast
        peers = [f"r{i}" for i in range(n)]
        self.engines = [
            PBFTEngine(
                peer, "DC", peers, config or PBFTConfig(), app(),
                send=functools.partial(self.send, peer),
                broadcast=functools.partial(self.broadcast, peer),
                set_timer=self.set_timer, clock=self,
                make_future=lambda label: Settable(),
            )
            for peer in peers
        ]

    def send(self, src, dst, message):
        self.sent.append((src, message))
        self.pool.append((src, dst, message))

    def broadcast(self, src, dsts, message):
        self.sent.append((src, message))
        self.pool += [(src, dst, message) for dst in dsts if dst != src]

    def set_timer(self, delay, fn, *args):
        self.timers.append((Settable(), fn, args))
        return self.timers[-1][0]

    def drain(self, pick=lambda size: 0):
        while self.pool:
            src, dst, message = self.pool.pop(pick(len(self.pool)))
            self.now += 1.0
            if not {src, dst} & self.down:
                engine = self.engines[int(dst[1:])]
                getattr(engine, f"handle_{message.kind}")(message, src)

    def fire(self, name, engine):
        """Fire ``engine``'s armed timers whose callback is ``name``."""
        armed, self.timers = self.timers, []
        for handle, fn, args in armed:
            if fn.__name__ != name or fn.__self__ is not engine:
                self.timers.append((handle, fn, args))
            elif not handle.cancelled and engine.node_id not in self.down:
                fn(*args)


def values_of(engine):
    return [(entry.seq, entry.value) for entry in engine.executed_entries]


def assert_agreement(engines, length):
    """Equal logs, and equal chain heads at equal watermarks."""
    assert {engine.last_executed for engine in engines} == {length}
    assert len({engine._exec_chain for engine in engines}) == 1
    assert len({tuple(values_of(engine)) for engine in engines}) == 1


def require_commit_quorum(router):
    """No execution without 2f + 1 matching commit votes."""
    for engine in router.engines:
        def check(entry, engine=engine):
            slot = engine.slots[entry.seq]
            matching = [d for d in slot.commits.values() if d == slot.digest]
            assert len(matching) >= commit_quorum(engine.f)
        engine.on_executed.append(check)


def test_neither_this_file_nor_the_engine_imports_sim_obs_or_core():
    for path in (__file__, engine_module.__file__):
        tree = ast.parse(pathlib.Path(path).read_text())
        imported = [
            alias.name if isinstance(node, ast.Import) else node.module
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        for module in imported:
            assert not module.startswith(
                ("repro.sim", "repro.obs", "repro.core")
            ), (path, module)


@pytest.mark.parametrize("n", [4, 7])
def test_normal_case(n):
    router = Router(n)
    require_commit_quorum(router)
    leader, backup = router.engines[:2]
    _, first = leader.submit("a", payload_bytes=10)
    _, second = backup.submit("b")  # forwarded to the leader
    router.drain()
    assert_agreement(router.engines, 2)
    assert values_of(leader) == [(1, "a"), (2, "b")]
    assert (first.value.seq, second.value.seq) == (1, 2)
    # Nothing is left armed: slot watchdogs and retry timers are done.
    assert all(handle.cancelled for handle, _fn, _args in router.timers)


@pytest.mark.parametrize("n", [4, 7])
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_any_delivery_order_of_one_slots_votes_converges(n, seed):
    router = Router(n)
    require_commit_quorum(router)
    _, future = router.engines[0].submit("v")
    victim = router.engines[-1]

    def pick(size, rng=random.Random(seed)):
        # Shuffle everything, but make the victim's pre-prepare the last
        # message of all: every vote overtakes the proposal it votes on.
        held = [
            index for index, (_src, dst, message) in enumerate(router.pool)
            if isinstance(message, PrePrepare) and dst == victim.node_id
        ]
        free = [index for index in range(size) if index not in held]
        if not free:
            slot = victim.slots[1]
            assert not slot.has_pre_prepare and victim.last_executed == 0
            assert len(slot.commits) >= commit_quorum(victim.f) - 1
        return rng.choice(free or held)

    router.drain(pick)
    assert future.resolved and future.value.seq == 1
    assert_agreement(router.engines, 1)


def test_view_change_fired_by_hand():
    router = Router(4)
    require_commit_quorum(router)
    r0, r1, r2, r3 = router.engines
    router.down.add("r0")  # the view-0 leader is silent
    _, future = r1.submit("v")
    router.drain()
    assert not future.resolved
    # The origin's retry timer suspects the leader and tells the group;
    # each backup's watchdog for the forwarded request joins in.
    router.fire("_request_timeout", r1)
    router.drain()
    assert r1.in_view_change and not r2.in_view_change
    router.fire("_client_request_watchdog", r2)
    router.fire("_client_request_watchdog", r3)
    router.drain()
    assert [e.view for e in (r1, r2, r3)] == [1, 1, 1]
    assert future.resolved and values_of(r1) == [(1, "v")]
    assert_agreement([r1, r2, r3], 1)
    assert r0.last_executed == 0


def test_leader_that_joins_by_the_join_rule_installs_its_view_once():
    # r2 and r3 suspect the silent r0; r1 never does, so it joins view 1
    # by the f + 1 rule. Its own vote re-enters the tally and installs
    # the view it leads; the outer frame must not install it again,
    # which would re-propose a used seq for the next request.
    router = Router(4)
    r0, r1, r2, r3 = router.engines
    router.down.add("r0")
    r2.submit("w")
    r1.submit("a")
    router.drain()
    router.fire("_request_timeout", r2)
    router.drain()
    router.fire("_client_request_watchdog", r3)
    router.drain()
    assert r1.view == 1 and r1.leader_of(1) == "r1"
    sent = [message for src, message in router.sent if src == "r1"]
    assert sum(isinstance(message, NewView) for message in sent) == 1
    digests = {}
    for message in sent:
        if isinstance(message, NewView):
            proposals = message.pre_prepares
        else:
            proposals = [message] if isinstance(message, PrePrepare) else []
        for pp in proposals:
            digests.setdefault((pp.view, pp.seq), set()).add(pp.digest)
    assert all(len(found) == 1 for found in digests.values()), digests


def test_checkpoint_stabilises_and_truncates_slots():
    router = Router(4, PBFTConfig(checkpoint_interval=2))
    for value in "abcde":
        router.engines[0].submit(value)
        router.drain()
    assert_agreement(router.engines, 5)
    for engine in router.engines:
        assert engine.stable_checkpoint == 4
        assert engine.stable_certificate.state_digest
        assert sorted(engine.slots) == [5]
        assert not engine._checkpoints


def test_lagging_engine_rejoins_by_catch_up():
    router = Router(4)
    laggard = router.engines[3]
    router.down.add("r3")
    for value in "abc":
        router.engines[0].submit(value)
        router.drain()
    assert laggard.last_executed == 0
    router.down.clear()
    laggard.on_recover()
    router.drain()
    assert_agreement(router.engines, 3)
    assert laggard.snapshot_installs == 0


class Snapshot:
    def __init__(self, seq):
        self.seq = seq

    def digest(self):
        return f"snapshot@{self.seq}"


class SnapshotApp(PBFTApp):
    """Signed checkpoints over a snapshot, as a middleware would."""

    installed = None

    def checkpoint_payload(self, seq):
        return Snapshot(seq)

    def sign_checkpoint(self, digest):
        return ("signed", digest)

    def certificate_valid(self, certificate):
        return len(certificate.signatures) >= commit_quorum(1)

    def install_snapshot(self, payload, seq):
        self.installed = payload
        return True


def test_lagging_engine_rejoins_by_snapshot():
    config = PBFTConfig(checkpoint_interval=2, gc_executed_log=True)
    router = Router(4, config, app=SnapshotApp)
    laggard = router.engines[3]
    router.down.add("r3")
    for value in "abcde":
        router.engines[0].submit(value)
        router.drain()
    # The peers garbage-collected what the laggard is missing.
    assert [e.seq for e in router.engines[0].executed_entries] == [5]
    router.down.clear()
    laggard.on_recover()
    router.drain()
    assert laggard.snapshot_installs == 1
    assert laggard.app.installed.seq == 4
    assert_agreement(router.engines, 5)


def _rejoin_past_gc(app):
    """A replica that was down while its peers checkpointed and
    garbage-collected the entries it is missing, back up."""
    config = PBFTConfig(checkpoint_interval=2, gc_executed_log=True)
    router = Router(4, config, app=app)
    router.down.add("r3")
    for value in "abcde":
        router.engines[0].submit(value)
        router.drain()
    router.down.clear()
    router.engines[3].on_recover()
    router.drain()
    return router, router.engines[3]


def test_plain_group_refuses_unprovable_snapshot_offers():
    # Unsigned checkpoint votes prove nothing a peer can transfer.
    router, laggard = _rejoin_past_gc(PBFTApp)
    assert laggard.snapshot_installs == 0
    assert laggard.snapshot_offers_rejected > 0


class SignedCheckpointApp(PBFTApp):
    """Signed checkpoints, and no middleware state to snapshot."""

    def sign_checkpoint(self, digest):
        return ("signed", digest)

    def certificate_valid(self, certificate):
        return len(certificate.signatures) >= commit_quorum(1)


def test_certified_watermark_alone_rejoins_a_group_without_snapshots():
    router, laggard = _rejoin_past_gc(SignedCheckpointApp)
    assert laggard.snapshot_installs == 1
    assert_agreement(router.engines, 5)


def test_forged_replies_from_one_sender_resolve_nothing():
    router = Router(4)
    r0, r1, r2, r3 = router.engines
    request_id, future = r1.submit("real")
    # The leader withholds the request and answers the origin with
    # f + 1 replies, each naming a different backup.
    router.pool = [
        (src, dst, message) for src, dst, message in router.pool
        if not isinstance(message, ClientRequest)
    ]
    for ghost in ("r2", "r3"):
        router.send(
            "r0", "r1",
            Reply(view=0, seq=99, digest="f" * 64,
                  request_id=request_id, replica=ghost),
        )
    router.drain()
    assert not future.resolved
    assert request_id in r1._pending  # still retried
    # The honest path still works: depose the leader, commit for real.
    router.down.add("r0")
    router.fire("_request_timeout", r1)
    router.drain()
    router.fire("_client_request_watchdog", r2)
    router.fire("_client_request_watchdog", r3)
    router.drain()
    assert future.resolved and future.value.seq == 1
    assert values_of(r2) == [(1, "real")]


def test_digest_memo_cannot_rebind_a_pre_prepare():
    # ("c", True) == ("c", 1) in Python, yet the two request ids bind
    # different digests: a memo keyed by equality would serve the honest
    # digest for the forged id and let the backup vote for it.
    router = Router(4)
    backup = router.engines[1]
    honest = PrePrepare(
        view=0, seq=1, request_id=("c", 1), value="v",
        digest=request_digest("v", RECORD_TYPE_COMMIT, ("c", 1)),
    )
    backup.handle_pre_prepare(honest, "r0")
    assert backup.slots[1].has_pre_prepare
    assert {(type(m), m.seq) for _s, _d, m in router.pool} == {(Prepare, 1)}
    router.pool.clear()
    forged = PrePrepare(
        view=0, seq=2, request_id=("c", True), value="v", digest=honest.digest,
    )
    backup.handle_pre_prepare(forged, "r0")
    assert router.pool == []
    assert 2 not in backup.slots
