"""Property-based tests for simulator determinism and ordering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import Simulator


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1000.0),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_events_always_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fire_times = []
    for delay in delays:
        sim.schedule(delay, lambda: fire_times.append(sim.now))
    sim.run()
    assert fire_times == sorted(fire_times)
    assert len(fire_times) == len(delays)


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=50, deadline=None)
def test_seeded_runs_are_bit_identical(seed, n):
    def run():
        sim = Simulator(seed=seed)
        values = []

        def proc():
            for _ in range(n):
                yield sim.sleep(sim.rng.uniform(0.1, 5.0))
                values.append((sim.now, sim.rng.random()))

        sim.spawn(proc())
        sim.run()
        return values

    assert run() == run()


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=30))
@settings(max_examples=50, deadline=None)
def test_all_of_waits_for_slowest(delays):
    sim = Simulator()
    from repro.sim.process import all_of

    def proc():
        yield all_of(sim, [sim.sleep(delay) for delay in delays])
        return sim.now

    process = sim.spawn(proc())
    sim.run()
    assert process.result() == max(delays)


@given(st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_any_of_returns_at_fastest(delays):
    sim = Simulator()
    from repro.sim.process import any_of

    def proc():
        yield any_of(sim, [sim.sleep(delay) for delay in delays])
        return sim.now

    process = sim.spawn(proc())
    sim.run()
    assert process.result() == min(delays)
