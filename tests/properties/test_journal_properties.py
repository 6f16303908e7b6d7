"""Property-based equivalence of the columnar flight-recorder ring and
the deque-of-``ProtocolEvent`` store it replaced (hypothesis)."""

from itertools import cycle, islice
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EventJournal
from tests.obs.test_emit_cost import ReferenceJournal

NODES = ["", "A-0", "A-1", "B-0"]
small = st.integers(min_value=0, max_value=2000)
digests = st.sampled_from(["d1", "d2", "ab" * 32])

#: (kind, args) per arg shape; ``log.append`` has two shapes.
payloads = st.one_of(
    st.tuples(st.just("node.crash"), st.just({})),
    st.tuples(
        st.just("pbft.vote"),
        st.fixed_dictionaries({
            "phase": st.sampled_from(["prepare", "commit"]), "view": small,
            "seq": small, "digest": digests,
            "voter": st.sampled_from(NODES), "src": st.sampled_from(NODES),
        }),
    ),
    st.tuples(
        st.just("log.append"),
        st.fixed_dictionaries({"position": small, "record_type": digests}),
    ),
    st.tuples(
        st.just("log.append"),
        st.fixed_dictionaries({
            "position": small, "record_type": digests,
            "destination": st.sampled_from(["A", "B"]),
        }),
    ),
    st.tuples(
        st.just("deploy.unit"),
        st.fixed_dictionaries({
            "members": st.lists(st.sampled_from(NODES), max_size=4),
            "gateway": st.sampled_from(NODES),
        }),
    ),
)
emits = st.tuples(
    payloads,
    st.sampled_from(["", "A", "B"]),
    st.sampled_from(NODES),
    st.one_of(st.none(), st.tuples(small, small)),
)


def _fields(event):
    return (event.event_id, event.kind, event.at_ms, event.participant,
            event.node, event.trace, event.args)


def _assert_same(journal, reference):
    assert len(journal) == len(reference)
    assert journal.recorded == reference.recorded
    assert journal.dropped == reference.dropped
    assert journal.first_event_id == reference.first_event_id
    assert journal.last_event_id == reference.last_event_id
    expected = reference.events()
    assert [_fields(e) for e in journal] == [
        _fields(e) for e in expected
    ]
    assert [e.to_dict() for e in journal] == [e.to_dict() for e in expected]


@given(
    st.sampled_from([None, 0, 1, 7, 5000]),
    st.lists(emits, min_size=1, max_size=30),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=80),
)
@settings(max_examples=60, deadline=None)
def test_columnar_ring_equals_the_reference_journal(
    max_events, pattern, early, extra
):
    journal, reference = EventJournal(max_events), ReferenceJournal(max_events)
    journal.clock = reference.clock = clock = SimpleNamespace(now=0.0)
    seen, expected_seen = [], []
    journal.subscribe(lambda event: seen.append(_fields(event)))
    reference.subscribe(lambda event: expected_seen.append(_fields(event)))
    # Fill the ring, then evict past where the dead prefix of the
    # columns is cut off (an eighth of the ring plus 64 rows), twice.
    ring = max_events or 0
    total = ring + 2 * (64 + ring // 8) + extra
    for index, ((kind, args), participant, node, trace) in enumerate(
        islice(cycle(pattern), total)
    ):
        if index == early:
            _assert_same(journal, reference)
        clock.now = index * 0.25
        for target in (journal, reference):
            target.emit(kind, participant, node, trace, **args)
    _assert_same(journal, reference)
    # Subscribers saw every event, later-evicted ones included.
    assert seen == expected_seen and len(seen) == total


@given(st.lists(emits, min_size=1, max_size=30))
@settings(max_examples=30, deadline=None)
def test_read_events_are_copies(pattern):
    journal = EventJournal()
    for (kind, args), participant, node, trace in pattern:
        journal.emit(kind, participant, node, trace, **args)
    before = [e.to_dict() for e in journal]
    for event in journal:
        event.args["injected"] = True
        event.kind = "mutated"
    assert [e.to_dict() for e in journal] == before
