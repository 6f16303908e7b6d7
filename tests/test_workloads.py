"""Tests for workload generation and the experiment runner."""

from repro.sim.simulator import Simulator
from repro.workloads.generator import BatchWorkload, make_batch
from repro.workloads.openloop import open_loop_process
from repro.workloads.runner import sequential_commit_latency


def test_make_batch_has_requested_size():
    for size in (10, 1000, 100_000):
        assert len(make_batch(3, size)) == size


def test_make_batch_deterministic_per_seed():
    assert make_batch(5, 100, seed=1) == make_batch(5, 100, seed=1)
    assert make_batch(5, 100, seed=1) != make_batch(5, 100, seed=2)


def test_make_batch_distinct_per_index():
    assert make_batch(1, 100) != make_batch(2, 100)


def test_batch_workload_counts():
    workload = BatchWorkload(measured=10, warmup=3, batch_bytes=50)
    batches = list(workload.batches())
    assert len(batches) == 13
    assert workload.total == 13
    assert all(len(batch) == 50 for batch in batches)


def test_sequential_commit_latency_records_after_warmup():
    sim = Simulator(seed=1)

    def fake_commit(batch, payload_bytes):
        return sim.sleep(2.0)  # constant 2ms 'commit'

    workload = BatchWorkload(measured=5, warmup=2, batch_bytes=100)
    result = sequential_commit_latency(sim, fake_commit, workload)
    assert len(result["series"]) == 5
    assert result["latency_ms"] == 2.0
    # throughput identity: 100 bytes / 2 ms = 0.05 MB/s
    assert abs(result["throughput_mb_s"] - 0.05) < 1e-9


class TestOpenLoopWorkload:
    def test_schedule_is_deterministic_per_seed(self):
        from repro.workloads import OpenLoopWorkload

        first = list(OpenLoopWorkload(total=200, seed=3).gaps_ms())
        second = list(OpenLoopWorkload(total=200, seed=3).gaps_ms())
        other = list(OpenLoopWorkload(total=200, seed=4).gaps_ms())
        assert first == second
        assert first != other
        assert len(first) == 200

    def test_bursts_inject_zero_gaps_without_changing_total(self):
        from repro.workloads import OpenLoopWorkload

        workload = OpenLoopWorkload(
            total=100, seed=1, burst_every=10, burst_size=4
        )
        gaps = list(workload.gaps_ms())
        assert len(gaps) == 100
        assert gaps.count(0.0) >= 4 * (100 // (10 + 4))
        pure = list(OpenLoopWorkload(total=100, seed=1).gaps_ms())
        assert 0.0 not in pure

    def test_mean_gap_tracks_the_rate(self):
        from repro.workloads import OpenLoopWorkload

        gaps = list(
            OpenLoopWorkload(rate_per_s=500.0, total=5_000, seed=2).gaps_ms()
        )
        mean = sum(gaps) / len(gaps)
        assert 1.6 < mean < 2.4  # nominal 2 ms

    def test_payloads_are_deterministic_sized_and_indexed(self):
        from repro.workloads import OpenLoopWorkload

        workload = OpenLoopWorkload(batch_bytes=80, seed=9, clients=4)
        assert workload.payload(7) == workload.payload(7)
        assert workload.payload(7) != workload.payload(8)
        assert len(workload.payload(7)) == 80
        assert workload.payload(7).startswith("op:7:c3:")

    def test_hot_fraction_skews_keys(self):
        from repro.workloads import OpenLoopWorkload

        hot = OpenLoopWorkload(seed=5, hot_fraction=1.0)
        assert all(
            f":k0:" in hot.payload(index) for index in range(20)
        )


class TestRunOpenLoop:
    def _deployment(self, max_in_flight=0):
        from repro.core import BlockplaneConfig, BlockplaneDeployment
        from repro.sim.topology import single_dc_topology

        sim = Simulator(seed=11)
        deployment = BlockplaneDeployment(
            sim,
            single_dc_topology("DC"),
            BlockplaneConfig(
                f_independent=1, admission_max_in_flight=max_in_flight
            ),
        )
        return sim, deployment

    def _drive(self, sim, commit, workload, retry_after_ms=5.0,
               retry_budget=50):
        stats = dict.fromkeys(
            ("offered", "admitted", "shed", "committed", "failed", "dropped"),
            0,
        )
        process = sim.spawn(open_loop_process(
            sim, commit, workload, stats, retry_after_ms, retry_budget, 5.0
        ))
        sim.run_until_resolved(process, max_events=200_000_000)
        return stats

    def test_all_offered_operations_commit(self):
        from repro.workloads import OpenLoopWorkload

        sim, deployment = self._deployment()
        api = deployment.api("DC")
        stats = self._drive(
            sim,
            api.log_commit,
            OpenLoopWorkload(rate_per_s=2_000.0, total=300, seed=1),
        )
        assert stats["offered"] == 300
        assert stats["committed"] == 300
        assert stats["failed"] == stats["dropped"] == 0
        assert stats["duration_ms"] > 0
        # The log holds the 300 commits plus any committed truncation
        # markers the unit's own checkpointing appended (and may have
        # folded a prefix of them — total positions keep counting).
        log = deployment.unit("DC").gateway_node().local_log
        assert len(log) >= 300
        retained_commits = sum(
            1 for entry in log if entry.record_type == "log-commit"
        )
        assert retained_commits + log.base_position - 1 >= 300

    def test_shed_arrivals_are_retried_not_lost(self):
        from repro.workloads import OpenLoopWorkload

        sim, deployment = self._deployment(max_in_flight=2)
        api = deployment.api("DC")
        stats = self._drive(
            sim,
            api.log_commit,
            OpenLoopWorkload(
                rate_per_s=5_000.0,
                total=200,
                seed=2,
                burst_every=20,
                burst_size=10,
            ),
            retry_after_ms=1.0,
            retry_budget=10_000,
        )
        assert stats["shed"] > 0, "window never filled — test is vacuous"
        assert stats["committed"] == 200
        assert stats["dropped"] == 0
        assert len(deployment.unit("DC").gateway_node().local_log) >= 200

    def test_exhausted_retry_budget_counts_dropped(self):
        from repro.errors import Overloaded
        from repro.workloads import OpenLoopWorkload

        sim = Simulator(seed=3)

        def always_overloaded(value, batch_bytes):
            raise Overloaded("full")

        stats = self._drive(
            sim,
            always_overloaded,
            OpenLoopWorkload(rate_per_s=1_000.0, total=20, seed=3),
            retry_after_ms=1.0,
            retry_budget=3,
        )
        assert stats["offered"] == 20
        assert stats["dropped"] == 20
        assert stats["committed"] == 0
        assert stats["shed"] == 20 * 4  # initial attempt + 3 retries
