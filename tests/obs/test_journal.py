"""Flight-recorder journal: ring behavior, subscribers, hub gating."""

import json
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.obs import EventJournal, Observability
from repro.obs.hub import DISABLED
from repro.obs.spans import SpanLog
from repro.sim.simulator import Simulator


# ----------------------------------------------------------------------
# Ring buffer semantics
# ----------------------------------------------------------------------
def test_record_assigns_monotonic_ids_and_preserves_order():
    journal = EventJournal()
    journal.clock = clock = SimpleNamespace(now=0.0)
    for index in range(5):
        clock.now = float(index)
        journal.emit("pbft.vote", participant="C", node=f"C-{index % 4}",
                     seq=index)
    events = list(journal)
    assert [e.event_id for e in events] == [1, 2, 3, 4, 5]
    assert [e.at_ms for e in events] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert journal.recorded == 5
    assert journal.dropped == 0
    assert len(journal) == 5


def test_capacity_evicts_oldest_and_counts_drops():
    journal = EventJournal(max_events=3)
    for index in range(7):
        journal.emit("log.append", participant="C", position=index)
    assert journal.recorded == 7
    assert journal.dropped == 4
    assert len(journal) == 3
    # The retained window is the most recent suffix.
    assert [e.args["position"] for e in journal] == [4, 5, 6]
    # Event ids keep counting even across drops.
    assert [e.event_id for e in journal] == [5, 6, 7]


@pytest.mark.parametrize(
    "argument, ring", [("max_events", EventJournal), ("max_spans", SpanLog)]
)
def test_negative_ring_capacity_is_a_configuration_error(argument, ring):
    with pytest.raises(ConfigurationError, match=argument):
        ring(-1)
    with pytest.raises(ConfigurationError, match=argument):
        Observability(**{argument: -1})


def test_zero_capacity_rings_retain_nothing_and_count_every_drop():
    obs = Observability(max_events=0, max_spans=0)
    seen = []
    obs.journal.subscribe(seen.append)
    for seq in range(3):
        obs.event("pbft.vote", participant="C", node="C-1", seq=seq)
        obs.begin_wan_span("C", "V", seq, None, node="C-0")
        obs.end_span(obs.begin_span("commit", participant="C"))
    assert obs.end_wan_span("C", "V", 2).end_ms is not None
    assert (len(obs.journal), obs.journal.dropped) == (0, 3)
    assert obs.journal.first_event_id is obs.journal.last_event_id is None
    assert [event.event_id for event in seen] == [1, 2, 3]
    assert (len(obs.spans), obs.spans.dropped, obs.spans.orphaned) == (0, 6, 0)
    assert obs.correlations_retained == 0


def test_queries_by_kind_and_node():
    journal = EventJournal()
    journal.emit("pbft.vote", participant="C", node="C-1")
    journal.emit("pbft.vote", participant="C", node="C-2")
    journal.emit("daemon.ship", participant="C", node="C-0")
    assert len([e for e in journal if e.kind == "pbft.vote"]) == 2
    assert [e.node for e in journal if e.kind == "daemon.ship"] == ["C-0"]
    assert [e.kind for e in journal if e.node == "C-1"] == ["pbft.vote"]


def test_event_dict_form_is_json_safe():
    journal = EventJournal()
    journal.clock = SimpleNamespace(now=4.25)
    journal.emit(
        "pbft.pre_prepare", participant="C", node="C-1",
        trace=(7, 9), view=0, seq=3, digest="ab" * 32,
    )
    (event,) = journal
    decoded = json.loads(json.dumps(event.to_dict()))
    assert decoded["kind"] == "pbft.pre_prepare"
    assert decoded["at_ms"] == 4.25
    assert decoded["trace"] == [7, 9]
    assert decoded["args"]["seq"] == 3


# ----------------------------------------------------------------------
# Subscribers
# ----------------------------------------------------------------------
def test_subscribers_see_every_event_synchronously():
    journal = EventJournal(max_events=2)
    seen = []
    journal.subscribe(lambda event: seen.append(event.event_id))
    for index in range(5):
        journal.emit("chain.advance", participant="V")
    # Eviction does not affect subscribers: they saw all five.
    assert seen == [1, 2, 3, 4, 5]
    assert len(journal) == 2


# ----------------------------------------------------------------------
# Hub gating
# ----------------------------------------------------------------------
def test_hub_event_records_only_when_forensics_enabled():
    obs = Observability(enabled=True)
    assert obs.forensics
    obs.event("pbft.vote", participant="C", node="C-1", seq=1)
    assert len(obs.journal) == 1

    quiet = Observability(enabled=True, forensics=False)
    assert not quiet.forensics
    quiet.event("pbft.vote", participant="C", node="C-1", seq=1)
    assert len(quiet.journal) == 0

    assert not DISABLED.forensics
    DISABLED.event("pbft.vote", participant="C")
    assert len(DISABLED.journal) == 0


# ----------------------------------------------------------------------
# One write path: hub.event is EventJournal.emit on the hub's clock
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fields",
    [
        dict(kind="pbft.vote", participant="C", node="C-1", trace=None,
             phase="commit", view=0, seq=3, digest="ab", voter="C-2",
             src="C-2"),
        dict(kind="log.append", participant="V", node="V-0", trace=(7, 9),
             position=12, record_type="communication", destination="C"),
        dict(kind="node.crash"),
    ],
)
def test_hub_event_and_journal_record_store_the_same_event(fields):
    at = 12.5
    sim = Simulator(seed=0)
    sim.run(until=at)
    obs = Observability(enabled=True)
    obs.bind_clock(sim)
    journal = EventJournal()
    seen_hub, seen_direct = [], []
    obs.journal.subscribe(lambda event: seen_hub.append(event.to_dict()))
    journal.subscribe(lambda event: seen_direct.append(event.to_dict()))

    obs.event(**fields)
    (via_hub,) = obs.journal
    journal.clock = sim
    journal.emit(**fields)
    (direct,) = journal

    assert via_hub.to_dict() == direct.to_dict()
    assert direct.at_ms == at
    # Subscribers saw the finished event, timestamp included.
    assert seen_hub == seen_direct == [direct.to_dict()]
    assert obs.event("chain.advance") is None
