"""Per-core FCFS queueing with speed-weighted dispatch.

The latency-critical services the paper uses (Memcached, Elasticsearch)
dispatch requests to worker threads pinned one-per-core; load balancing
across heterogeneous cores is imperfect, which is why at very high load the
paper's configuration sweeps (Figure 2) fall back to big-cores-only even
though mixed configurations have more aggregate capacity.  We model each
core as a FCFS single server fed by weighted-random dispatch with weight
``speed ** balance_exponent``: an exponent of 1 is capacity-proportional
(perfect) balancing, 0 is uniform.  Two defaults exist and they are
intentionally different: a bare :class:`DispatchQueue` defaults to 0.7
(a reasonable middle ground for unit tests and standalone use), while
engine-driven runs are governed by
:attr:`repro.sim.engine.EngineConfig.balance_exponent`, whose 0.55 is
the calibrated value that reproduces the paper's imbalance-driven
crossovers (Figure 2).  The engine always passes its own value down, so
``EngineConfig`` owns the knob for every experiment; the class default
here only applies when a queue is constructed directly.

Each server's FCFS backlog evolves by the Lindley recursion
``C_j = max(arrival_j, C_{j-1}) + service_j``; :meth:`DispatchQueue.run_interval`
evaluates it vectorized per server (``np.cumsum`` over service plus a
running maximum over arrival slack) instead of looping per request,
which is what keeps 10k+ arrivals per interval cheap.

The queue state (per-core virtual "free time") carries over between
monitoring intervals, so overload causes multi-interval latency blow-ups
and slow recovery exactly as on real hardware.  Reconfigurations
redistribute residual backlog over the new server set and, when the *core
set* changed (a migration -- not a DVFS change), charge a migration
penalty; this asymmetry between costly migrations and near-free DVFS
transitions is central to the paper's argument (Section 2, citing Rubik).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

DemandSampler = Callable[[np.random.Generator, int], np.ndarray]

#: Version tag of the queue kernel, folded into scenario fingerprints so
#: cached results are invalidated whenever the hot-path semantics change.
#: The dense/core-indexed engine refactor did NOT bump it: the rng stream
#: and every emitted float are bit-identical to the previous kernel (the
#: equivalence suite against the test-only reference engine enforces it).
KERNEL_VERSION = "lindley-v1"

#: Below this many servers the per-server bookkeeping (utilizations,
#: carried backlog, shedding) runs in scalar Python instead of numpy:
#: numpy's pairwise summation degenerates to sequential summation under
#: eight elements, so both paths produce bit-identical floats while the
#: scalar one skips ~1 microsecond of dispatch overhead per tiny array
#: op -- the dominant cost at realistic per-interval arrival counts.
_SCALAR_SERVER_LIMIT = 8


def lindley_completion_times(
    arrivals: np.ndarray, service: np.ndarray, free0: float
) -> np.ndarray:
    """Completion times of a FCFS server, vectorized (the queue kernel).

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


def exact_row_sums(padded: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.add.reduce(row[:count])`` for every row of a padded matrix.

    numpy's pairwise summation tree depends on the operand length, so a
    padded row sum is not the exact-length reduce once rows reach eight
    entries.  Rows are therefore stacked by count and each equal-count
    block reduces its ``count``-wide view (an axis-1 reduce runs the 1-D
    routine per row); rows without entries sum to 0.0.
    """
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    stacked = padded[order]
    sums = np.zeros(len(order))
    cuts = np.flatnonzero(np.diff(sorted_counts)) + 1
    lo = 0
    for hi in cuts.tolist() + [len(order)]:
        c = int(sorted_counts[lo])
        if c:
            sums[lo:hi] = np.add.reduce(stacked[lo:hi, :c], axis=1)
        lo = hi
    out = np.empty_like(sums)
    out[order] = sums
    return out


class DrawnInterval(NamedTuple):
    """One interval's arrival randomness, drawn ahead of evaluation.

    :meth:`DispatchQueue.draw_interval` consumes exactly the rng draws
    the scalar path would (arrival process, then demands, then the
    dispatch uniforms -- nothing when the interval is empty) and parks
    them here, so the epoch fast path can keep drawing *and validating*
    interval by interval while deferring all queue arithmetic to one
    batched pass.
    """

    n: int
    times: np.ndarray
    demands: np.ndarray
    dispatch_u: np.ndarray


class EpochQueueStats(NamedTuple):
    """Per-interval queue outcomes of one decision-stable epoch.

    ``latencies_s`` concatenates the intervals' sojourn times in arrival
    order; interval ``i`` owns the slice ``[offsets[i], offsets[i + 1])``.
    ``backlog_s`` is the queue backlog at each interval's end, *after*
    shedding -- i.e. exactly what :meth:`DispatchQueue.backlog_s` would
    report between intervals on the scalar path.
    """

    latencies_s: np.ndarray
    offsets: np.ndarray
    counts: list[int]
    utilizations: np.ndarray
    mean_utilization: np.ndarray
    shed_work_s: np.ndarray
    backlog_s: np.ndarray


@dataclass(frozen=True)
class IntervalQueueStats:
    """What happened inside the queue during one monitoring interval."""

    latencies_s: np.ndarray
    arrival_times_s: np.ndarray
    arrivals: int
    utilizations: tuple[float, ...]
    shed_work_s: float

    @property
    def mean_utilization(self) -> float:
        """Mean utilization over the interval's servers (0 when empty)."""
        n = len(self.utilizations)
        if n == 0:
            return 0.0
        if n < _SCALAR_SERVER_LIMIT:
            # np.mean's pairwise reduction is plain sequential summation
            # below eight elements, so this is the identical float.
            return sum(self.utilizations) / n
        return float(np.mean(self.utilizations))


@dataclass
class DispatchQueue:
    """Heterogeneous per-core FCFS queues with weighted-random dispatch.

    Parameters
    ----------
    rng:
        Source of randomness for arrivals, demands and dispatch.
    balance_exponent:
        Dispatch weight is ``speed ** balance_exponent``; see module
        docstring.
    migration_penalty_s:
        Service blackout charged when the server (core) set changes --
        thread migration plus cold caches.  Expressed in queue time; the
        caller is responsible for dilating it when running a time-scaled
        replica.
    max_backlog_s:
        Upper bound on per-server backlog.  Work beyond the bound is shed
        (clients time out and retry elsewhere); the shed amount is
        reported so experiments can account for it.
    burstiness:
        Mean batch size of arrivals.  1.0 gives plain Poisson arrivals;
        larger values draw burst epochs as a thinned Poisson process with
        geometric batch sizes (a batch Markovian arrival process).  Real
        request streams are bursty -- Memcached multi-gets fan out, search
        front-ends batch -- which is what makes tail latency grow
        *gradually* with utilization instead of cliff-diving only at
        saturation.
    """

    rng: np.random.Generator
    balance_exponent: float = 0.7
    migration_penalty_s: float = 0.0
    max_backlog_s: float | None = None
    burstiness: float = 1.0
    _speeds: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0))
    _free: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0))
    _weights: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0))
    _cdf: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0))

    @property
    def n_servers(self) -> int:
        """Number of currently configured servers."""
        return len(self._speeds)

    def backlog_s(self, now: float) -> float:
        """Total queued work across servers, expressed in seconds of delay."""
        k = self.n_servers
        if k == 0:
            return 0.0
        if k < _SCALAR_SERVER_LIMIT:
            total = 0.0
            for f in self._free.tolist():
                if f > now:
                    total += f - now
            return total
        return float(np.sum(np.maximum(self._free - now, 0.0)))

    def reconfigure(
        self, speeds: Sequence[float], now: float, *, migration: bool = False
    ) -> None:
        """Update the server set, carrying residual backlog over.

        Three cases, from cheapest to costliest:

        * identical speeds, no migration -- a no-op; per-server queues are
          untouched (repeating the same decision must not perturb them);
        * same server count, no migration (a DVFS change) -- each server's
          residual *work* is preserved, so its backlog time rescales by
          the speed ratio;
        * a migration (core set changed) -- residual work is pooled and
          spread evenly (in time) over the new servers, and every server
          is blacked out for ``migration_penalty_s``.
        """
        new_speeds = np.asarray(speeds, dtype=float)
        if new_speeds.ndim != 1 or len(new_speeds) == 0:
            raise ValueError("need at least one server")
        if np.any(new_speeds <= 0):
            raise ValueError("server speeds must be positive")

        same_count = len(new_speeds) == self.n_servers
        if same_count and not migration:
            if not np.array_equal(new_speeds, self._speeds):
                backlog = np.maximum(self._free - now, 0.0)
                ratio = self._speeds / new_speeds
                self._free = now + np.minimum(self._free - now, 0.0) + backlog * ratio
                self._speeds = new_speeds
                self._set_weights(new_speeds)
            return

        residual_work = 0.0
        if self.n_servers:
            residual_work = float(
                np.sum(np.maximum(self._free - now, 0.0) * self._speeds)
            )
        start = now + (self.migration_penalty_s if migration else 0.0)
        per_server_delay = residual_work / float(np.sum(new_speeds))
        self._speeds = new_speeds
        self._free = np.full(len(new_speeds), start + per_server_delay)
        self._set_weights(new_speeds)

    def _set_weights(self, speeds: np.ndarray) -> None:
        weights = speeds**self.balance_exponent
        self._weights = weights / weights.sum()
        # The dispatch CDF, built exactly the way ``Generator.choice``
        # builds it internally (cumsum then renormalize), so the manual
        # inverse-CDF dispatch below reproduces ``rng.choice`` bit for bit.
        cdf = np.cumsum(self._weights)
        cdf /= cdf[-1]
        self._cdf = cdf

    def _dispatch(self, n: int) -> np.ndarray:
        """Server index per request: ``rng.choice`` without its overhead.

        ``Generator.choice(k, size=n, p=w)`` draws ``random(n)`` and
        counts, per draw, how many CDF entries it clears.  Doing that
        count with one vectorized comparison per server (there are at
        most a handful) skips ``choice``'s per-call validation and its
        binary search, consumes the identical rng stream, and returns
        the identical assignment -- the equivalence is pinned by a test.
        """
        return self._assign(self.rng.random(n))

    def _assign(self, u: np.ndarray) -> np.ndarray:
        """Server index per already-drawn dispatch uniform (see
        :meth:`_dispatch`; separated so the epoch path can assign a whole
        epoch's stored uniforms with the identical comparisons)."""
        cdf = self._cdf
        last = len(cdf) - 1  # cdf[-1] == 1.0 > u always, never counted
        if last == 0:
            return np.zeros(len(u), dtype=np.intp)
        if last > 8:
            return cdf.searchsorted(u, side="right")
        assigned = (u >= cdf[0]).astype(np.intp)
        for j in range(1, last):
            assigned += u >= cdf[j]
        return assigned

    def _group_from_u(self, u: np.ndarray) -> list[np.ndarray] | None:
        """Per-server request index arrays for stored dispatch uniforms.

        Same assignment as :meth:`_dispatch` (the draw happened in
        :meth:`draw_interval`); ``None`` means a single server takes all.
        Two servers -- the platform's big-cores-only configurations, the
        most common case in practice -- group from one comparison mask
        without ever materializing the assignment array.
        """
        k = self.n_servers
        if k == 1:
            return None
        if k == 2:
            mask = u >= self._cdf[0]
            return [(~mask).nonzero()[0], mask.nonzero()[0]]
        assigned = self._assign(u)
        return [(assigned == j).nonzero()[0] for j in range(k)]

    def draw_interval(
        self,
        t0: float,
        t1: float,
        arrival_rate: float,
        demand_sampler: DemandSampler,
    ) -> DrawnInterval:
        """Consume one interval's randomness without evaluating the queue.

        Draw order matches :meth:`run_interval` exactly -- arrival
        process, then (only when requests arrived) demands and the
        dispatch uniforms -- so ``run_drawn(t0, t1, draw_interval(...))``
        is byte-identical to ``run_interval(...)``.
        """
        if self.n_servers == 0:
            raise RuntimeError("reconfigure() must be called before run_interval()")
        if t1 <= t0:
            raise ValueError("interval must have positive duration")
        if arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        n, times = self._draw_arrivals(arrival_rate, t0, t1)
        if n == 0:
            empty = np.empty(0)
            return DrawnInterval(0, times, empty, empty)
        demands = demand_sampler(self.rng, n)
        u = self.rng.random(n)
        return DrawnInterval(n, times, demands, u)

    def run_interval(
        self,
        t0: float,
        t1: float,
        arrival_rate: float,
        demand_sampler: DemandSampler,
    ) -> IntervalQueueStats:
        """Simulate Poisson arrivals over ``[t0, t1)``.

        Returns per-request latencies (sojourn times) for every request
        *arriving* in the interval, per-server utilizations, and the
        amount of work shed to the backlog bound.
        """
        return self.run_drawn(t0, t1, self.draw_interval(t0, t1, arrival_rate, demand_sampler))

    def run_drawn(
        self, t0: float, t1: float, drawn: DrawnInterval
    ) -> IntervalQueueStats:
        """Evaluate one interval whose randomness was already drawn."""
        dt = t1 - t0
        n_servers = self.n_servers
        scalar = n_servers < _SCALAR_SERVER_LIMIT
        n = drawn.n
        if scalar:
            free_list = self._free.tolist()
            carried_busy = [max(min(f, t1) - t0, 0.0) for f in free_list]
        else:
            carried_busy = np.maximum(np.minimum(self._free, t1) - t0, 0.0)
        if n == 0:
            if scalar:
                utils = tuple(min(c / dt, 1.0) for c in carried_busy)
            else:
                utils = tuple(float(u) for u in np.minimum(carried_busy / dt, 1.0))
            shed = self._shed(t1)
            return IntervalQueueStats(
                latencies_s=np.empty(0),
                arrival_times_s=np.empty(0),
                arrivals=0,
                utilizations=utils,
                shed_work_s=shed,
            )

        arrivals = drawn.times
        demands = drawn.demands
        groups = self._group_from_u(drawn.dispatch_u)

        service_sums = [0.0] * n_servers
        free = self._free
        speeds = self._speeds
        # The per-server block below is lindley_completion_times inlined
        # (same six array ops), so the kernel pays no call overhead at
        # interval rates of ~10k/s.
        maximum = np.maximum
        if groups is None:
            # Single server: no grouping work at all (the dispatch draw
            # still happened, keeping the stream aligned).
            service = demands / speeds[0]
            service_sums[0] = float(np.add.reduce(service))
            cum = service.cumsum()
            buf = cum - service
            np.subtract(arrivals, buf, out=buf)
            maximum.accumulate(buf, out=buf)
            maximum(buf, free[0], out=buf)
            np.add(cum, buf, out=buf)
            free[0] = buf[-1]
            latencies = np.subtract(buf, arrivals, out=buf)
        else:
            latencies = np.empty(n)
            for k in range(n_servers):
                idx = groups[k]
                if len(idx) == 0:
                    continue
                service = demands[idx] / speeds[k]
                service_sums[k] = float(np.add.reduce(service))
                arr_k = arrivals[idx]
                cum = service.cumsum()
                buf = cum - service
                np.subtract(arr_k, buf, out=buf)
                maximum.accumulate(buf, out=buf)
                maximum(buf, free[k], out=buf)
                np.add(cum, buf, out=buf)
                free[k] = buf[-1]
                np.subtract(buf, arr_k, out=buf)
                latencies[idx] = buf

        if scalar:
            utils = tuple(
                [min((c + s) / dt, 1.0) for c, s in zip(carried_busy, service_sums)]
            )
        else:
            utils = tuple(
                float(u)
                for u in np.minimum((carried_busy + np.asarray(service_sums)) / dt, 1.0)
            )
        shed = self._shed(t1)
        return IntervalQueueStats(
            latencies_s=latencies,
            arrival_times_s=arrivals,
            arrivals=n,
            utilizations=utils,
            shed_work_s=shed,
        )

    def run_epoch_drawn(
        self,
        t0s: Sequence[float],
        t1s: Sequence[float],
        drawn: Sequence[DrawnInterval],
    ) -> EpochQueueStats:
        """Evaluate a run of pre-drawn intervals in one batched pass.

        The caller guarantees the server set is untouched for the whole
        epoch (no :meth:`reconfigure` between the intervals) -- exactly
        the decision-stable regime of the engine's epoch fast path.

        Byte-identity with per-interval :meth:`run_drawn` calls rests on
        three observations, each pinned by the differential tests:

        * ``cumsum``/``maximum.accumulate`` along ``axis=1`` of a padded
          per-server ``(epoch, max_requests)`` matrix run the identical
          sequential recurrences per row as the scalar path's 1-D kernel
          (padding sits *after* the valid entries and its outputs are
          never read), while per-interval reductions -- service sums,
          the latency mean -- use exact-length row slices because
          numpy's pairwise summation tree depends on the operand length;
        * the only cross-interval coupling is each server's free time,
          whose per-boundary update ``free' = cum_last + max(free,
          runmax_last)`` and shed clamp are the scalar path's own two
          scalar operations, evaluated in a cheap Python scan;
        * per-interval bookkeeping (carried busy time, utilizations,
          shedding, backlog) replicates the scalar branch of
          :meth:`run_drawn` expression by expression, which is why the
          epoch path requires ``n_servers < _SCALAR_SERVER_LIMIT``.
        """
        k = self.n_servers
        if k == 0:
            raise RuntimeError("reconfigure() must be called before run_epoch_drawn()")
        if k >= _SCALAR_SERVER_LIMIT:
            raise ValueError(
                "the epoch kernel replicates the scalar per-server "
                f"bookkeeping and needs n_servers < {_SCALAR_SERVER_LIMIT}"
            )
        n_epoch = len(drawn)
        counts = [d.n for d in drawn]
        total = sum(counts)
        offsets = np.zeros(n_epoch + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])

        if total:
            times_all = np.concatenate([d.times for d in drawn])
            demands_all = np.concatenate([d.demands for d in drawn])
            u_all = np.concatenate([d.dispatch_u for d in drawn])
            interval_of = np.repeat(np.arange(n_epoch, dtype=np.intp), counts)
            if k == 1:
                assigned = None
            elif k == 2:
                # Matches _group_from_u's mask grouping: server 0 takes
                # ~mask, server 1 takes mask.
                assigned = (u_all >= self._cdf[0]).astype(np.intp)
            else:
                assigned = self._assign(u_all)
        speeds = self._speeds

        # Per-server padded matrices: row i holds interval i's requests
        # for that server (valid entries first), so the row-wise Lindley
        # recurrences below are the scalar kernel verbatim.
        per_server: list[tuple | None] = []
        for s in range(k):
            if not total:
                per_server.append(None)
                continue
            if assigned is None:
                sel = np.arange(total, dtype=np.intp)
            else:
                sel = np.flatnonzero(assigned == s)
            if not len(sel):
                per_server.append(None)
                continue
            rows = interval_of[sel]
            cnt = np.bincount(rows, minlength=n_epoch)
            width = int(cnt.max())
            starts = np.zeros(n_epoch, dtype=np.intp)
            np.cumsum(cnt[:-1], out=starts[1:])
            pos = np.arange(len(sel), dtype=np.intp) - starts[rows]
            dem = np.zeros((n_epoch, width))
            dem[rows, pos] = demands_all[sel]
            arr = np.zeros((n_epoch, width))
            arr[rows, pos] = times_all[sel]
            service = dem / speeds[s]
            cum = service.cumsum(axis=1)
            buf = cum - service
            np.subtract(arr, buf, out=buf)
            np.maximum.accumulate(buf, axis=1, out=buf)
            last_col = cnt - 1
            nz = np.flatnonzero(cnt)
            runmax_last = np.zeros(n_epoch)
            cum_last = np.zeros(n_epoch)
            runmax_last[nz] = buf[nz, last_col[nz]]
            cum_last[nz] = cum[nz, last_col[nz]]
            per_server.append(
                (sel, rows, pos, cnt, service, cum, buf, arr, runmax_last, cum_last)
            )

        # Cross-interval scan: carry each server's free time across the
        # epoch with the scalar path's own per-boundary operations -- the
        # Lindley carry, then the shed clamp.  Servers couple only through
        # the per-interval shed and backlog *sums*, so each server scans
        # alone, on plain Python floats (array values are hoisted out
        # through tolist() first, because per-element ndarray indexing
        # would cost more than the whole batched kernel); the arithmetic
        # is the identical IEEE sequence either way.
        t0_arr = np.asarray(t0s, dtype=float)
        t1_arr = np.asarray(t1s, dtype=float)
        max_backlog = self.max_backlog_s
        if max_backlog is None:
            bounds = [np.inf] * n_epoch
        else:
            bounds = (t1_arr + max_backlog).tolist()
        free = self._free
        free_l = free.tolist()
        free_start = np.empty((n_epoch, k))
        free_end = np.empty((n_epoch, k))
        shed_work = np.zeros(n_epoch)
        service_sums: list[np.ndarray | float] = []
        for s in range(k):
            data = per_server[s]
            if data is None:
                cnt_l = [0] * n_epoch
                runmax_l = cum_last_l = cnt_l
                service_sums.append(0.0)
            else:
                cnt = data[3]
                cnt_l = cnt.tolist()
                runmax_l = data[8].tolist()
                cum_last_l = data[9].tolist()
                service_sums.append(exact_row_sums(data[4], cnt))
            f = free_l[s]
            starts: list[float] = []
            ends: list[float] = []
            sheds: list[float] = []
            for c, runmax, cum_last, bound in zip(cnt_l, runmax_l, cum_last_l, bounds):
                starts.append(f)
                if c:
                    f = cum_last + max(f, runmax)
                if f > bound:
                    sheds.append(f - bound)
                    f = bound
                else:
                    sheds.append(0.0)
                ends.append(f)
            free_l[s] = f
            free_start[:, s] = starts
            free_end[:, s] = ends
            # shed = 0.0, then += each clamped server's excess in server
            # order: adding +0.0 for unclamped servers leaves the
            # non-negative running sum bit-identical.
            shed_work += sheds
        free[:] = free_l

        # Per-interval bookkeeping, column by column in server order: the
        # scalar branch of run_drawn expression by expression, with
        # Python's min/max written as the equivalent np.where selections
        # (which keep their tie and signed-zero behaviour exactly).
        dt = t1_arr - t0_arr
        busy = np.asarray(counts) != 0
        utils = np.empty((n_epoch, k))
        util_sum = np.zeros(n_epoch)
        backlog = np.zeros(n_epoch)
        for s in range(k):
            f = free_start[:, s]
            clipped = np.where(t1_arr < f, t1_arr, f) - t0_arr
            carried = np.where(0.0 > clipped, 0.0, clipped)
            idle = carried / dt
            idle = np.where(1.0 < idle, 1.0, idle)
            loaded = (carried + service_sums[s]) / dt
            loaded = np.where(1.0 < loaded, 1.0, loaded)
            # A fully carried-over busy interval has carried == dt, so
            # min((dt + service_sum) / dt, 1.0) is exactly 1.0 for any
            # non-negative service sum.
            util = np.where(busy, np.where(f >= t1_arr, 1.0, loaded), idle)
            utils[:, s] = util
            util_sum = util_sum + util
            end = free_end[:, s]
            backlog = backlog + np.where(end > t1_arr, end - t1_arr, 0.0)
        mean_utilization = util_sum / k

        # Completion times and sojourn latencies, batched per server with
        # the scalar kernel's remaining three elementwise passes.
        latencies = np.empty(total)
        for s in range(k):
            data = per_server[s]
            if data is None:
                continue
            sel, rows, pos, _, _, cum, buf, arr, _, _ = data
            np.maximum(buf, free_start[:, s].reshape(n_epoch, 1), out=buf)
            np.add(cum, buf, out=buf)
            np.subtract(buf, arr, out=buf)
            latencies[sel] = buf[rows, pos]
        return EpochQueueStats(
            latencies_s=latencies,
            offsets=offsets,
            counts=counts,
            utilizations=utils,
            mean_utilization=mean_utilization,
            shed_work_s=shed_work,
            backlog_s=backlog,
        )

    def _draw_arrivals(
        self, arrival_rate: float, t0: float, t1: float
    ) -> tuple[int, np.ndarray]:
        """Arrival times for one interval: Poisson or geometric bursts."""
        dt = t1 - t0
        if self.burstiness <= 1.0:
            n = int(self.rng.poisson(arrival_rate * dt))
            times = self.rng.uniform(t0, t1, size=n)
            times.sort()
            return n, times
        mean_batch = self.burstiness
        n_bursts = int(self.rng.poisson(arrival_rate * dt / mean_batch))
        if n_bursts == 0:
            return 0, np.empty(0)
        sizes = self.rng.geometric(1.0 / mean_batch, size=n_bursts)
        epochs = self.rng.uniform(t0, t1, size=n_bursts)
        epochs.sort()
        times = epochs.repeat(sizes)
        return int(times.size), times

    def _shed(self, now: float) -> float:
        """Clamp backlog to the bound; return seconds of delay shed."""
        if self.max_backlog_s is None:
            return 0.0
        bound = now + self.max_backlog_s
        free = self._free
        if len(free) < _SCALAR_SERVER_LIMIT:
            shed = 0.0
            clamp = False
            for f in free.tolist():
                if f > bound:
                    shed += f - bound
                    clamp = True
            if clamp:
                np.minimum(free, bound, out=free)
            return shed
        excess = np.maximum(free - bound, 0.0)
        if np.any(excess > 0):
            np.minimum(free, bound, out=free)
        return float(np.sum(excess))
