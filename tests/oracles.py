"""Independent reference implementations the fast paths are checked against.

Each function here computes what a piece of ``src/`` computes, the
straightforward way, and nothing in the package calls it:

* :func:`lindley_completion_times_reference` is the per-request FCFS
  loop, and :func:`lindley_completion_times` its single-server closed
  form; :meth:`repro.sim.queueing.DispatchQueue.run_drawn` evaluates the
  closed form for every server of an interval at once;
* :func:`clip_reference` is the full-matrix cap redistribution that
  :meth:`repro.fleet.balancer.LoadBalancer._clip` runs on overflowing
  rows only;
* :func:`aggregate_pressure` sums batch memory intensity per cluster
  from a string-keyed mapping, as
  :func:`repro.sim.contention.aggregate_pressure_indexed` does from the
  dense core index.

Import it with ``tests/`` on ``sys.path`` (``from oracles import ...``);
it is not part of the installed package.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.fleet.balancer import MAX_NODE_LEVEL
from repro.sim.contention import ClusterPressure


def lindley_completion_times(
    arrivals: np.ndarray, service: np.ndarray, free0: float
) -> np.ndarray:
    """Completion times of one FCFS server, vectorized.

    For requests with sorted ``arrivals`` and per-request ``service``
    times hitting a server that frees up at ``free0``, the Lindley
    recursion is ``C_j = max(arrivals_j, C_{j-1}) + service_j`` (with
    ``C_{-1} = free0``).  Unrolling it gives the closed form

        ``C_j = cumsum(service)_j + max(free0, max_{i<=j}(arrivals_i -
        cumsum(service)_{i-1}))``

    which evaluates in three array passes -- a cumulative sum, a running
    maximum, and an add -- instead of a Python-level loop per request.
    Equivalent to :func:`lindley_completion_times_reference` up to
    floating-point associativity (different summation order).
    """
    cum = service.cumsum()
    buf = cum - service  # shifted cumsum
    np.subtract(arrivals, buf, out=buf)  # arrival slack before running max
    np.maximum.accumulate(buf, out=buf)
    np.maximum(buf, free0, out=buf)
    np.add(cum, buf, out=buf)
    return buf


def lindley_completion_times_reference(
    arrivals: np.ndarray, service: np.ndarray, free0: float
) -> np.ndarray:
    """Per-request reference loop for the Lindley recursion.

    The seed implementation of the FCFS hot path, kept as the oracle for
    the property tests and the old side of the kernel micro-benchmark.
    """
    completion = np.empty(len(arrivals))
    free = free0
    for j in range(len(arrivals)):
        start = arrivals[j] if arrivals[j] > free else free
        free = start + service[j]
        completion[j] = free
    return completion


def clip_reference(balancer, levels: np.ndarray) -> np.ndarray:
    """The pre-vectorization cap redistribution, the byte-identity
    oracle for ``LoadBalancer._clip``: every pass runs the
    redistribution arithmetic over the full matrix, overflowing or not
    (the no-op rows move by exactly ``+0.0`` per pass).

    It takes the balancer first so a test can patch it in as ``_clip``.
    """
    levels = np.clip(levels, 0.0, None)
    for _ in range(levels.shape[1]):
        excess = np.clip(levels - MAX_NODE_LEVEL, 0.0, None)
        overflow = excess.sum(axis=1)
        if not (overflow > 1e-12).any():
            break
        levels = levels - excess
        headroom = MAX_NODE_LEVEL - levels
        total_headroom = headroom.sum(axis=1)
        share = np.divide(
            overflow,
            total_headroom,
            out=np.zeros_like(overflow),
            where=total_headroom > 0,
        )
        levels = levels + headroom * np.minimum(share, 1.0)[:, None]
    return np.clip(levels, 0.0, MAX_NODE_LEVEL)


def aggregate_pressure(
    mem_intensity_by_core: Mapping[str, float],
    big_core_ids: Sequence[str],
) -> ClusterPressure:
    """Sum per-core batch memory intensities into per-cluster pressure."""
    big_ids = set(big_core_ids)
    big = sum(v for cid, v in mem_intensity_by_core.items() if cid in big_ids)
    small = sum(v for cid, v in mem_intensity_by_core.items() if cid not in big_ids)
    return ClusterPressure(big=big, small=small)
