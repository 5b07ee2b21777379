"""Unit and property tests for the dispatch queue."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.queueing import (
    DispatchQueue,
    lindley_completion_times,
    lindley_completion_times_reference,
)


def make_queue(seed=0, **kwargs):
    return DispatchQueue(rng=np.random.default_rng(seed), **kwargs)


def exponential_sampler(mean):
    def sample(rng, n):
        return rng.exponential(mean, size=n)

    return sample


class TestBasics:
    def test_requires_reconfigure_first(self):
        queue = make_queue()
        with pytest.raises(RuntimeError, match="reconfigure"):
            queue.run_interval(0, 1, 10, exponential_sampler(0.01))

    def test_rejects_empty_or_negative_speeds(self):
        queue = make_queue()
        with pytest.raises(ValueError):
            queue.reconfigure([], now=0)
        with pytest.raises(ValueError):
            queue.reconfigure([1.0, -1.0], now=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_speeds(self, bad):
        queue = make_queue()
        queue.reconfigure([1.0, 2.0], now=0)
        with pytest.raises(ValueError, match="finite"):
            queue.reconfigure([1.0, bad], now=0)
        # The rejected vector left the queue as it was.
        assert queue._speeds.tolist() == [1.0, 2.0]

    def test_zero_rate_interval(self):
        queue = make_queue()
        queue.reconfigure([1.0], now=0)
        stats = queue.run_interval(0, 1, 0.0, exponential_sampler(0.01))
        assert stats.arrivals == 0
        assert stats.latencies_s.size == 0
        assert stats.mean_utilization == 0.0

    def test_latency_at_least_service(self):
        queue = make_queue()
        queue.reconfigure([1.0], now=0)
        stats = queue.run_interval(0, 10, 50, exponential_sampler(0.001))
        assert np.all(stats.latencies_s > 0)

    def test_arrival_times_within_interval(self):
        queue = make_queue()
        queue.reconfigure([1.0, 1.0], now=0)
        stats = queue.run_interval(3.0, 4.0, 100, exponential_sampler(0.001))
        assert np.all(stats.arrival_times_s >= 3.0)
        assert np.all(stats.arrival_times_s < 4.0)


class TestLindleyKernel:
    """The vectorized queue kernel must match the per-request loop."""

    @given(
        n=st.integers(1, 200),
        speed=st.floats(0.1, 4.0),
        free0=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_loop(self, n, speed, free0, seed):
        rng = np.random.default_rng(seed)
        arrivals = np.sort(rng.uniform(0.0, 10.0, size=n))
        service = rng.exponential(0.05, size=n) / speed
        fast = lindley_completion_times(arrivals, service, free0)
        slow = lindley_completion_times_reference(arrivals, service, free0)
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_completions_monotone_and_after_arrivals(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        arrivals = np.sort(rng.uniform(0.0, 5.0, size=n))
        service = rng.exponential(0.1, size=n)
        completion = lindley_completion_times(arrivals, service, 1.0)
        assert np.all(np.diff(completion) >= 0)  # FCFS order preserved
        # C_j >= a_j + s_j exactly in real arithmetic; allow float slack.
        assert np.all(completion >= (arrivals + service) * (1 - 1e-12))

    def test_burst_of_simultaneous_arrivals_serializes(self):
        """Equal arrival times (a batch) must queue behind each other."""
        arrivals = np.zeros(4)
        service = np.full(4, 0.25)
        completion = lindley_completion_times(arrivals, service, 0.0)
        np.testing.assert_allclose(completion, [0.25, 0.5, 0.75, 1.0])

    def test_initial_free_time_delays_first_request(self):
        completion = lindley_completion_times(
            np.array([0.0]), np.array([1.0]), 3.0
        )
        np.testing.assert_allclose(completion, [4.0])

    def test_run_interval_matches_reference_dispatch(self):
        """End to end: run_interval latencies equal a reference dispatch
        replay using the same rng draws."""
        queue = make_queue(seed=42, balance_exponent=0.55)
        queue.reconfigure([1.0, 0.4, 0.4], now=0.0)
        free_before = queue._free.copy()
        rng_replay = np.random.default_rng(42)
        stats = queue.run_interval(0.0, 5.0, 400.0, exponential_sampler(0.004))

        # Replay the rng stream: arrivals, demands, assignment.
        n = int(rng_replay.poisson(400.0 * 5.0))
        arrivals = np.sort(rng_replay.uniform(0.0, 5.0, size=n))
        demands = rng_replay.exponential(0.004, size=n)
        assigned = rng_replay.choice(3, size=n, p=queue._weights)
        assert n == stats.arrivals

        expected = np.empty(n)
        for k, speed in enumerate((1.0, 0.4, 0.4)):
            (idx,) = np.nonzero(assigned == k)
            if len(idx) == 0:
                continue
            completion = lindley_completion_times_reference(
                arrivals[idx], demands[idx] / speed, free_before[k]
            )
            expected[idx] = completion - arrivals[idx]
        np.testing.assert_allclose(stats.latencies_s, expected, rtol=1e-9)


class TestQueueingBehaviour:
    def test_latency_grows_with_utilization(self):
        """Mean sojourn time must increase with offered load."""
        means = []
        for rate in (100, 400, 800):
            queue = make_queue(seed=7)
            queue.reconfigure([1.0], now=0)
            all_lat = []
            for i in range(30):
                stats = queue.run_interval(i, i + 1, rate, exponential_sampler(0.001))
                all_lat.append(stats.latencies_s)
            means.append(float(np.mean(np.concatenate(all_lat))))
        assert means[0] < means[1] < means[2]

    def test_mm1_mean_close_to_theory(self):
        """M/M/1 at rho=0.5: mean sojourn = 1/(mu - lambda)."""
        queue = make_queue(seed=3, balance_exponent=1.0)
        queue.reconfigure([1.0], now=0)
        lat = []
        for i in range(200):
            stats = queue.run_interval(i, i + 1, 500, exponential_sampler(0.001))
            lat.append(stats.latencies_s)
        measured = float(np.mean(np.concatenate(lat)))
        assert measured == pytest.approx(1.0 / (1000 - 500), rel=0.15)

    def test_overload_builds_backlog_across_intervals(self):
        queue = make_queue(seed=5)
        queue.reconfigure([1.0], now=0)
        queue.run_interval(0, 1, 2000, exponential_sampler(0.001))  # rho = 2
        assert queue.backlog_s(1.0) > 0.5

    def test_faster_server_attracts_more_work(self):
        queue = make_queue(seed=9, balance_exponent=1.0)
        queue.reconfigure([2.0, 1.0], now=0)
        stats = queue.run_interval(0, 20, 500, exponential_sampler(0.002))
        # At balanced dispatch both servers see equal utilization.
        assert stats.utilizations[0] == pytest.approx(stats.utilizations[1], abs=0.1)

    def test_sublinear_balance_overloads_slow_server(self):
        """With exponent < 1 the slow server runs proportionally hotter."""
        queue = make_queue(seed=9, balance_exponent=0.0)  # uniform dispatch
        queue.reconfigure([3.0, 1.0], now=0)
        stats = queue.run_interval(0, 30, 900, exponential_sampler(0.002))
        assert stats.utilizations[1] > stats.utilizations[0]

    def test_burstiness_raises_tail_at_same_load(self):
        tails = []
        for burst in (1.0, 4.0):
            queue = make_queue(seed=11, burstiness=burst)
            queue.reconfigure([1.0], now=0)
            lat = []
            for i in range(100):
                stats = queue.run_interval(i, i + 1, 600, exponential_sampler(0.001))
                lat.append(stats.latencies_s)
            tails.append(float(np.quantile(np.concatenate(lat), 0.95)))
        assert tails[1] > tails[0] * 1.5

    def test_burst_arrival_rate_preserved(self):
        queue = make_queue(seed=13, burstiness=3.0)
        queue.reconfigure([10.0], now=0)
        total = 0
        for i in range(200):
            stats = queue.run_interval(i, i + 1, 100, exponential_sampler(0.0001))
            total += stats.arrivals
        assert total == pytest.approx(200 * 100, rel=0.1)


class TestReconfigure:
    def test_identical_speeds_are_noop(self):
        queue = make_queue(seed=1)
        queue.reconfigure([1.0, 2.0], now=0)
        queue.run_interval(0, 1, 1500, exponential_sampler(0.001))
        backlog_before = queue.backlog_s(1.0)
        queue.reconfigure([1.0, 2.0], now=1.0)
        assert queue.backlog_s(1.0) == pytest.approx(backlog_before)

    def test_dvfs_speed_change_rescales_backlog(self):
        queue = make_queue(seed=1)
        queue.reconfigure([1.0], now=0)
        queue.run_interval(0, 1, 3000, exponential_sampler(0.001))  # overload
        before = queue.backlog_s(1.0)
        queue.reconfigure([2.0], now=1.0)  # double the speed
        assert queue.backlog_s(1.0) == pytest.approx(before / 2, rel=0.01)

    def test_migration_charges_penalty(self):
        queue = make_queue(seed=1, migration_penalty_s=0.5)
        queue.reconfigure([1.0], now=0)
        queue.reconfigure([1.0, 1.0], now=0, migration=True)
        assert queue.backlog_s(0.0) == pytest.approx(1.0)  # 0.5 s x 2 servers

    def test_server_count_change_redistributes_work(self):
        queue = make_queue(seed=1)
        queue.reconfigure([1.0], now=0)
        queue.run_interval(0, 1, 3000, exponential_sampler(0.001))
        work_before = queue.backlog_s(1.0) * 1.0  # one unit-speed server
        queue.reconfigure([1.0, 1.0], now=1.0)
        per_server = queue.backlog_s(1.0) / 2
        assert per_server * 2 == pytest.approx(work_before, rel=0.01)

    def test_backlog_bound_sheds_work(self):
        queue = make_queue(seed=1, max_backlog_s=0.2)
        queue.reconfigure([1.0], now=0)
        stats = queue.run_interval(0, 1, 5000, exponential_sampler(0.001))
        assert stats.shed_work_s > 0
        assert queue.backlog_s(1.0) <= 0.2 * 1.001


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        rate=st.floats(min_value=1.0, max_value=500.0),
        n_servers=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    def test_all_latencies_positive_and_finite(self, rate, n_servers, seed):
        queue = make_queue(seed=seed)
        queue.reconfigure([1.0] * n_servers, now=0)
        stats = queue.run_interval(0, 1, rate, exponential_sampler(0.001))
        assert np.all(np.isfinite(stats.latencies_s))
        assert np.all(stats.latencies_s >= 0)
        assert len(stats.utilizations) == n_servers
        assert all(0.0 <= u <= 1.0 for u in stats.utilizations)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_deterministic_for_seed(self, seed):
        results = []
        for _ in range(2):
            queue = make_queue(seed=seed)
            queue.reconfigure([1.0, 0.5], now=0)
            stats = queue.run_interval(0, 1, 200, exponential_sampler(0.002))
            results.append(stats.latencies_s)
        assert np.array_equal(results[0], results[1])
