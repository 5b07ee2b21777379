"""The server-contiguous queue kernel against two oracles.

* **Byte identity.** :class:`engine_reference.PerServerDispatchQueue`
  keeps the per-server ``run_drawn`` kernel (one gather, Lindley pass
  and scatter per server) that the server-contiguous kernel replaced.
  Both evaluate the same drawn interval from the same queue state, and
  every output -- latencies, utilizations, shed work and the carried
  free times -- must agree bit for bit.
* **Queueing theory.** Weighted-random dispatch thins a Poisson stream
  into independent Poisson streams, so each server is an M/G/1 queue
  whose mean wait is given by the Pollaczek-Khinchine formula.  That
  checks the kernel against something other than itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from engine_reference import PerServerDispatchQueue

from repro.sim.queueing import DispatchQueue, DrawnInterval

T0, T1 = 10.0, 11.0

#: Request counts around numpy's pairwise-summation block (8) and its
#: unrolled-loop block (128), plus realistic and heavy intervals.
COUNTS = (0, 1, 7, 8, 9, 127, 128, 129, 1000, 3000)

#: Initial free times: idle before the interval, busy into it, and
#: backlogged past its end.
FREE_REGIMES = ("before", "inside", "after")


def _speeds(k: int) -> list[float]:
    return [1.3 * 0.85**j for j in range(k)]


def _drawn(rng: np.random.Generator, n: int, burstiness: float) -> DrawnInterval:
    """An interval of exactly ``n`` requests; bursts share arrival times."""
    if burstiness <= 1.0:
        times = np.sort(rng.uniform(T0, T1, size=n))
    else:
        sizes = rng.geometric(1.0 / burstiness, size=n)
        epochs = np.sort(rng.uniform(T0, T1, size=n))
        times = epochs.repeat(sizes)[:n]
    # A mean demand of 0.9/n s keeps the servers near saturation, so
    # queues actually form at every n.
    demands = rng.lognormal(np.log(0.9 / max(n, 1)), 0.8, size=n)
    return DrawnInterval(n, times, demands, rng.random(n))


def _free(rng: np.random.Generator, k: int, regime: str) -> np.ndarray:
    if regime == "before":
        return rng.uniform(T0 - 2.0, T0, size=k)
    if regime == "inside":
        return rng.uniform(T0, T1, size=k)
    return rng.uniform(T1, T1 + 3.0, size=k)


def _queue(cls, k: int, free: np.ndarray, max_backlog_s):
    queue = cls(
        rng=np.random.default_rng(0),
        balance_exponent=0.55,
        max_backlog_s=max_backlog_s,
    )
    queue.reconfigure(_speeds(k), now=T0)
    queue._free = free.copy()
    return queue


class TestByteIdentity:
    """The server-contiguous kernel against the per-server oracle."""

    @pytest.mark.parametrize("burstiness", [1.0, 3.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_matches_per_server_kernel(self, k, burstiness):
        rng = np.random.default_rng(1000 * k + int(burstiness))
        for n in COUNTS:
            drawn = _drawn(rng, n, burstiness)
            for regime in FREE_REGIMES:
                free = _free(rng, k, regime)
                # None never sheds; 0.05 s sheds whenever work piles up.
                for max_backlog_s in (None, 0.05):
                    new = _queue(DispatchQueue, k, free, max_backlog_s)
                    old = _queue(PerServerDispatchQueue, k, free, max_backlog_s)
                    got = new.run_drawn(T0, T1, drawn)
                    want = old.run_drawn(T0, T1, drawn)
                    case = (n, regime, max_backlog_s)
                    assert (
                        got.latencies_s.tobytes() == want.latencies_s.tobytes()
                    ), case
                    assert (
                        np.array(got.utilizations).tobytes()
                        == np.array(want.utilizations).tobytes()
                    ), case
                    assert (
                        np.float64(got.shed_work_s).tobytes()
                        == np.float64(want.shed_work_s).tobytes()
                    ), case
                    assert new._free.tobytes() == old._free.tobytes(), case
                    assert got.arrivals == want.arrivals == n

    def test_tight_backlog_actually_sheds(self):
        """The shedding branch above is exercised, not vacuous."""
        rng = np.random.default_rng(5)
        drawn = _drawn(rng, 1000, 1.0)
        queue = _queue(DispatchQueue, 4, _free(rng, 4, "after"), 0.05)
        assert queue.run_drawn(T0, T1, drawn).shed_work_s > 0.0

    def test_tied_arrivals_keep_arrival_order_within_a_server(self):
        """Stable ordering: requests sharing an arrival time are served
        in arrival order, so a burst's sojourn times strictly grow."""
        n = 64
        drawn = DrawnInterval(
            n,
            np.full(n, T0 + 0.5),
            np.full(n, 0.001),
            np.random.default_rng(3).random(n),
        )
        queue = _queue(DispatchQueue, 3, np.zeros(3), None)
        stats = queue.run_drawn(T0, T1, drawn)
        assigned = queue._assign(drawn.dispatch_u)[0]
        for j in range(3):
            lat = stats.latencies_s[assigned == j]
            assert np.all(np.diff(lat) > 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 9, 10, 12])
def test_assign_counts_match_bincount(k):
    """The per-server counts taken from the nested dispatch masks are
    the bincount of the assignment, at every server count."""
    rng = np.random.default_rng(k)
    queue = _queue(DispatchQueue, k, np.zeros(k), None)
    for n in (0, 1, 7, 1000):
        u = rng.random(n)
        assigned, counts = queue._assign(u)
        assert counts == np.bincount(assigned, minlength=k).tolist()
        assert all(type(c) is int for c in counts)


def _waits_by_server(k, speeds, rate, mu, sigma, seed, intervals, warmup):
    """Per-server waits of a long seeded run, one array per interval."""
    queue = DispatchQueue(rng=np.random.default_rng(seed), balance_exponent=0.55)
    queue.reconfigure(speeds, now=0.0)

    def sampler(rng, n):
        return rng.lognormal(mu, sigma, n)

    per_interval = [[] for _ in range(k)]
    for i in range(intervals):
        drawn = queue.draw_interval(float(i), float(i + 1), rate, sampler)
        stats = queue.run_drawn(float(i), float(i + 1), drawn)
        if i < warmup or drawn.n == 0:
            continue
        assigned = queue._assign(drawn.dispatch_u)[0]
        waits = stats.latencies_s - drawn.demands / queue._speeds[assigned]
        for j in range(k):
            per_interval[j].append(waits[assigned == j])
    return per_interval, queue._weights


class TestPollaczekKhinchine:
    """Per-server mean waits match the M/G/1 closed form."""

    @pytest.mark.parametrize(
        "speeds", [[1.0, 1.0, 0.45], [1.0, 1.0, 0.45, 0.45]], ids=["k3", "k4"]
    )
    def test_mean_wait_per_server(self, speeds):
        k = len(speeds)
        rate = 600.0  # requests/s over all servers
        mean_demand, sigma = 0.002, 0.6
        mu = np.log(mean_demand) - 0.5 * sigma**2
        per_interval, weights = _waits_by_server(
            k, speeds, rate, mu, sigma, seed=11, intervals=400, warmup=20
        )
        # E[D] and E[D^2] of the lognormal demand.
        d1 = mean_demand
        d2 = mean_demand**2 * np.exp(sigma**2)
        n_batches = 20
        for j in range(k):
            lam = rate * weights[j]
            s1, s2 = d1 / speeds[j], d2 / speeds[j] ** 2
            rho = lam * s1
            assert 0.3 < rho < 0.8  # a real queue, far from saturation
            theory = lam * s2 / (2.0 * (1.0 - rho))
            batches = np.array_split(np.arange(len(per_interval[j])), n_batches)
            batch_means = [
                np.concatenate([per_interval[j][i] for i in b]).mean()
                for b in batches
            ]
            measured = float(np.concatenate(per_interval[j]).mean())
            # Batch means absorb the waits' autocorrelation.  Over seeds
            # 0-29 the largest deviation seen was 3.9 standard errors.
            se = float(np.std(batch_means, ddof=1)) / np.sqrt(n_batches)
            assert abs(measured - theory) <= 4.5 * se, (j, measured, theory, se)
            assert measured == pytest.approx(theory, rel=0.1), (j, rho)
