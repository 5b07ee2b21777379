"""Micro-benchmark: vectorized vs per-request queue kernel.

``DispatchQueue.run_interval`` used to service requests one-by-one in a
Python loop; it now evaluates the FCFS Lindley recursion vectorized.
This benchmark records both kernels on identical inputs at increasing
arrival counts and asserts the headline speedup the refactor promises:
>= 5x at 10k+ requests per interval.

The ``run-drawn`` group records the whole per-interval queue evaluation
(``DispatchQueue.run_drawn``) at the engine's hot shapes -- HiPSTER-in
on memcached, about 900 requests over four or two servers.  Those
points are record-only: they land in the benchmark JSON and assert no
wall-clock bound.

The ``floor`` group records the whole per-interval cost of the engine --
queue draw and kernel, latency summary, power, the observation row and
the HiPSTER update -- as microseconds per interval of a HiPSTER-in
memcached run at constant load: 0.005 (about 7 requests per interval,
where the fixed per-interval cost dominates) and 0.75 (about 1,100).
Also record-only.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.scenarios import ScenarioSpec, TraceSpec
from repro.sim.queueing import (
    DispatchQueue,
    lindley_completion_times,
    lindley_completion_times_reference,
)


def _kernel_inputs(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, 1.0, size=n))
    service = rng.exponential(1.0 / n, size=n)  # ~unit utilization
    return arrivals, service


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.benchmark(group="queue-kernel")
@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
def test_vectorized_kernel(benchmark, n):
    """Throughput of the new kernel (the benchmark-tracked number)."""
    arrivals, service = _kernel_inputs(n)
    result = benchmark(lindley_completion_times, arrivals, service, 0.0)
    np.testing.assert_allclose(
        result,
        lindley_completion_times_reference(arrivals, service, 0.0),
        rtol=1e-9,
    )


@pytest.mark.benchmark(group="queue-kernel")
def test_reference_kernel_10k(benchmark):
    """Throughput of the seed's per-request loop, for the old-vs-new record."""
    arrivals, service = _kernel_inputs(10_000)
    benchmark.pedantic(
        lindley_completion_times_reference,
        args=(arrivals, service, 0.0),
        rounds=3,
        iterations=1,
    )


def test_speedup_at_high_arrival_counts():
    """Acceptance criterion: >= 5x at >= 10k requests/interval."""
    arrivals, service = _kernel_inputs(10_000)
    old = _best_of(lambda: lindley_completion_times_reference(arrivals, service, 0.0))
    new = _best_of(lambda: lindley_completion_times(arrivals, service, 0.0))
    speedup = old / new
    print(f"\nqueue kernel speedup at 10k arrivals: {speedup:.1f}x")
    assert speedup >= 5.0


@pytest.mark.benchmark(group="queue-kernel")
def test_run_interval_end_to_end_10k(benchmark):
    """The kernel inside its real call path: one loaded interval with
    ~10k arrivals across six heterogeneous servers."""

    def one_interval():
        queue = DispatchQueue(rng=np.random.default_rng(7), balance_exponent=0.55)
        queue.reconfigure([1.0, 1.0, 0.4, 0.4, 0.4, 0.4], now=0.0)
        return queue.run_interval(
            0.0, 1.0, 10_000.0, lambda rng, n: rng.exponential(3e-4, size=n)
        )

    stats = benchmark.pedantic(one_interval, rounds=3, iterations=1)
    assert stats.arrivals > 5_000


@pytest.mark.benchmark(group="run-drawn")
@pytest.mark.parametrize(
    "speeds",
    [[1.0, 1.0, 0.45, 0.45], [1.0, 1.0]],
    ids=["k4-900", "k2-900"],
)
def test_run_drawn_hot_interval(benchmark, speeds):
    """One pre-drawn interval of ~900 requests, from the same queue state
    every round (record-only)."""
    queue = DispatchQueue(
        rng=np.random.default_rng(3), balance_exponent=0.55, max_backlog_s=4.0
    )
    queue.reconfigure(speeds, now=0.0)
    drawn = queue.draw_interval(
        0.0, 1.0, 900.0, lambda rng, n: rng.lognormal(np.log(1e-3), 0.8, size=n)
    )
    free = queue._free.copy()

    def one_interval():
        queue._free[:] = free
        return queue.run_drawn(0.0, 1.0, drawn)

    stats = benchmark(one_interval)
    assert 800 < stats.arrivals < 1000


@pytest.mark.benchmark(group="floor")
@pytest.mark.parametrize("level", [0.005, 0.75], ids=["load0.005", "load0.75"])
def test_interval_floor(benchmark, level):
    """Microseconds per interval of a 600-interval HiPSTER-in run: 500
    learning intervals (the default phase length), then exploitation.
    Record-only; the manager's set-up is included, amortized over the
    run."""
    spec = ScenarioSpec(
        workload="memcached",
        trace=TraceSpec.constant(level, 600.0),
        manager="hipster-in",
        seed=0,
    )
    outcome = benchmark.pedantic(spec.run, rounds=5, iterations=1, warmup_rounds=1)
    n = len(outcome.result)
    assert n == 600
    benchmark.extra_info["intervals"] = n
    if benchmark.stats is not None:  # None under --benchmark-disable
        us = benchmark.stats.stats.min / n * 1e6
        benchmark.extra_info["us_per_interval"] = us
        print(f"\nper-interval floor at load {level}: {us:.1f} us")
