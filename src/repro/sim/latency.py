"""Latency statistics over monitoring intervals.

The paper quantifies QoS with the tail latency of the request distribution
-- the 95th percentile for Memcached, the 90th for Web-Search (Table 1) --
sampled once per monitoring interval, plus two summary metrics
(Section 4.2.4): *QoS guarantee*, the percentage of intervals whose
measured tail did not violate the target, and *QoS tardiness*,
``QoS_curr / QoS_target`` averaged over violating intervals only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LatencySample:
    """Tail-latency measurement for one monitoring interval."""

    tail_latency_ms: float
    mean_latency_ms: float
    n_requests: int

    def tardiness(self, target_ms: float) -> float:
        """``QoS_curr / QoS_target`` for this sample (Section 3.4 footnote)."""
        if target_ms <= 0:
            raise ValueError("target must be positive")
        return self.tail_latency_ms / target_ms

    def violates(self, target_ms: float) -> bool:
        """Whether this sample's tail exceeds the target."""
        return self.tail_latency_ms > target_ms


def linear_quantile(
    values: np.ndarray, q: float, *, destructive: bool = False
) -> float:
    """``np.quantile(values, q)`` for 1-D float64 data, via a partial sort.

    ``np.quantile`` fully dispatches through ``_ureduce`` and friends,
    which costs more than the selection itself on interval-sized samples.
    This replica selects the lower bracketing order statistic with one
    partition and takes the upper one as the minimum of the tail after
    it.  Both are exact values, so numpy's own
    ``method="linear"`` interpolation formula (including its ``gamma >=
    0.5`` rewrite, which exists for floating-point symmetry) gives a
    result bit-identical to ``np.quantile`` -- an equivalence pinned by
    randomized and structured tests.

    ``destructive=True`` partitions ``values`` in place (the quantile is
    permutation-invariant, but anything order-sensitive -- a pairwise
    mean, the pairing with per-request arrival times -- must happen
    before, so only pass it for buffers the caller owns and is done with).

    ``values`` must be non-empty and finite: a NaN is not ordered by the
    partition, so where ``np.quantile`` returns nan this may return a
    number.  The engine's latencies are finite by construction;
    :func:`summarize_latencies` checks outside data.
    """
    n = values.size
    virtual = q * (n - 1)
    lower = int(virtual)
    gamma = virtual - lower
    part = values if destructive else values.copy()
    part.partition(lower)
    a = float(part[lower])
    if gamma == 0.0:
        return a
    # Everything after ``lower`` is no smaller, so the upper order
    # statistic is the minimum of that tail (a short tail is cheaper to
    # scan as a list than through a ufunc reduction).
    tail = part[lower + 1 :]
    b = float(np.minimum.reduce(tail)) if tail.size > 32 else min(tail.tolist())
    diff = b - a
    if gamma >= 0.5:
        return b - diff * (1.0 - gamma)
    return a + diff * gamma


def linear_quantile_sorted(
    sorted_rows: np.ndarray, counts: np.ndarray, q: float
) -> np.ndarray:
    """:func:`linear_quantile` of every row of a row-sorted 2-D array.

    Row ``i`` holds ``counts[i] >= 1`` values, sorted ascending, ahead of
    any padding.  The bracketing order statistics are read directly and
    numpy's interpolation formula (with its ``gamma >= 0.5`` rewrite) is
    applied elementwise, so each row gets the float
    :func:`linear_quantile` returns for its values.
    """
    virtual = q * (counts - 1)
    lower = virtual.astype(np.intp)
    gamma = virtual - lower
    rows = np.arange(len(counts))
    a = sorted_rows[rows, lower]
    b = sorted_rows[rows, lower + (gamma != 0.0)]
    diff = b - a
    return np.where(
        gamma == 0.0,
        a,
        np.where(gamma >= 0.5, b - diff * (1.0 - gamma), a + diff * gamma),
    )


def summarize_latencies(
    latencies_ms: np.ndarray, percentile: float, *, idle_latency_ms: float = 0.0
) -> LatencySample:
    """Summarize an interval's request latencies.

    ``percentile`` is a fraction in (0, 1), e.g. 0.95 for p95.  Intervals
    with no completed requests (near-zero load) report the floor latency
    ``idle_latency_ms`` -- an unloaded service still answers in its base
    service time.  Raises ``ValueError`` on a NaN or infinite latency,
    which has no tail to report.
    """
    if not 0.0 < percentile < 1.0:
        raise ValueError("percentile must be a fraction in (0, 1)")
    latencies_ms = np.asarray(latencies_ms, dtype=float)
    if not np.isfinite(latencies_ms).all():
        raise ValueError("latencies must be finite")
    if latencies_ms.size == 0:
        return LatencySample(
            tail_latency_ms=idle_latency_ms,
            mean_latency_ms=idle_latency_ms,
            n_requests=0,
        )
    return LatencySample(
        tail_latency_ms=linear_quantile(latencies_ms, percentile),
        mean_latency_ms=column_mean(latencies_ms),
        n_requests=int(latencies_ms.size),
    )


def column_mean(values: np.ndarray) -> float:
    """``float(np.mean(values))`` of a non-empty float64 array, bit for
    bit: the same pairwise ``np.add.reduce`` and one divide by the
    length, minus ``np.mean``'s axis/dtype dispatch (a few us a call,
    and the warm replay computes thousands of summary metrics)."""
    return float(np.add.reduce(values) / values.size)


def qos_guarantee(tails_ms: np.ndarray, target_ms: float) -> float:
    """Fraction of intervals whose tail met the target (Section 4.2.4).

    A count over the length: ``np.mean`` of the boolean mask sums the
    same exact integer in float64 and makes the same single divide.
    """
    tails_ms = np.asarray(tails_ms, dtype=float)
    if tails_ms.size == 0:
        return 1.0
    return float(np.count_nonzero(tails_ms <= target_ms) / tails_ms.size)


def qos_tardiness(tails_ms: np.ndarray, target_ms: float) -> float:
    """Mean ``QoS_curr/QoS_target`` over violating intervals only.

    Returns 0.0 when no interval violates (the paper's table reports
    tardiness conditioned on violation).
    """
    tails_ms = np.asarray(tails_ms, dtype=float)
    violating = tails_ms[tails_ms > target_ms]
    if violating.size == 0:
        return 0.0
    return float(np.mean(violating / target_ms))
