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
``C_j = max(arrival_j, C_{j-1}) + service_j``, which unrolls into a
``np.cumsum`` over service plus a running maximum over arrival slack.
The queue kernel, :meth:`DispatchQueue.run_drawn`, evaluates it for all
servers in one server-contiguous pass: the interval's requests are
ordered by server once, the elementwise steps run over the whole flat
array, and only the order-dependent scans run per server, on contiguous
views.  The per-interval cost is thus a fixed number of numpy calls
plus three per server, whatever the arrival count.

The queue state (per-core virtual "free time") carries over between
monitoring intervals, so overload causes multi-interval latency blow-ups
and slow recovery exactly as on real hardware.  Reconfigurations
redistribute residual backlog over the new server set: a DVFS change
rescales each server's backlog, a migration (the *core set* changed)
pools it.  The migration's cost itself is not a queue blackout: the
engine adds it to the latency of the requests that arrive during the
migration window (``IntervalSimulator._add_migration_latency`` in
:mod:`repro.sim.engine`).  This asymmetry between costly migrations
and near-free DVFS transitions is central to the paper's argument
(Section 2, citing Rubik).

The per-server bookkeeping (utilizations, carried backlog, shedding)
walks plain Python floats in server order.  A queue has one server per
core of the latency-critical workload, a handful on any modelled board,
and at that size a numpy call costs more than the walk.
"""

from __future__ import annotations

import math
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


def _exact_sum(values: np.ndarray, running: np.ndarray, n: int) -> float:
    """``np.add.reduce(values)`` given ``running = np.add.accumulate(values)``.

    Below eight elements numpy's pairwise summation is the plain
    sequential sum, which is the running sum's last entry: reading it
    skips a reduction call.  Longer operands take the pairwise tree.
    """
    if n < 8:
        return float(running[-1])
    return float(np.add.reduce(values))


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


class IntervalQueueStats(NamedTuple):
    """What happened inside the queue during one monitoring interval."""

    latencies_s: np.ndarray
    arrival_times_s: np.ndarray
    arrivals: int
    utilizations: tuple[float, ...]
    shed_work_s: float
    #: Queued work left at the interval's end, after shedding: what
    #: :meth:`DispatchQueue.backlog_s` reads at ``t1``.
    backlog_s: float

    @property
    def mean_utilization(self) -> float:
        """Mean utilization over the interval's servers (0 when empty)."""
        n = len(self.utilizations)
        if n == 0:
            return 0.0
        return sum(self.utilizations) / n


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
        total = 0.0
        for f in self._free.tolist():
            if f > now:
                total += f - now
        return total

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
        * a migration (core set changed) or a new server count --
          residual work is pooled and spread evenly (in time) over the
          new servers.
        """
        new_speeds = np.asarray(speeds, dtype=float)
        if new_speeds.ndim != 1 or len(new_speeds) == 0:
            raise ValueError("need at least one server")
        new_list = new_speeds.tolist()
        # NaN fails both comparisons.
        if not all(0.0 < s < math.inf for s in new_list):
            raise ValueError("server speeds must be positive and finite")

        old_speeds = self._speeds.tolist()
        if len(new_list) == len(old_speeds) and not migration:
            if new_list == old_speeds:
                return
            self._free = np.array(
                [
                    now + min(f - now, 0.0) + max(f - now, 0.0) * (s_old / s_new)
                    for f, s_old, s_new in zip(
                        self._free.tolist(), old_speeds, new_list
                    )
                ]
            )
        else:
            residual_work = sum(
                max(f - now, 0.0) * s for f, s in zip(self._free.tolist(), old_speeds)
            )
            self._free = np.full(len(new_list), now + residual_work / sum(new_list))
        self._speeds = new_speeds
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
        return self._assign(self.rng.random(n))[0]

    def _assign(self, u: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Server index per already-drawn dispatch uniform, and the
        per-server request counts (see :meth:`_dispatch`; separated so
        the queue kernels can assign stored uniforms with the identical
        comparisons).

        Up to nine servers the indices accumulate in ``uint8`` (each
        comparison mask reinterpreted as 0/1 bytes), whose stable argsort
        is a radix sort; wider server sets fall back to a binary search.
        The CDF is non-decreasing, so the masks are nested: server ``j``
        receives the draws that clear mask ``j - 1`` but not mask ``j``,
        and its count is the difference of the two masks' popcounts.
        """
        cdf = self._cdf
        n = len(u)
        last = len(cdf) - 1  # cdf[-1] == 1.0 > u always, never counted
        if last == 0:
            return np.zeros(n, dtype=np.uint8), [n]
        if last > 8:
            assigned = cdf.searchsorted(u, side="right")
            return assigned, np.bincount(assigned, minlength=last + 1).tolist()
        mask = u >= cdf[0]
        above = int(np.count_nonzero(mask))
        counts = [n - above]
        assigned = mask.view(np.uint8)
        for j in range(1, last):
            mask = u >= cdf[j]
            cleared = int(np.count_nonzero(mask))
            counts.append(above - cleared)
            above = cleared
            assigned += mask.view(np.uint8)
        counts.append(above)
        return assigned, counts

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
        if len(self._speeds) == 0:
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
        return self.run_drawn(
            t0, t1, self.draw_interval(t0, t1, arrival_rate, demand_sampler)
        )

    def run_drawn(
        self, t0: float, t1: float, drawn: DrawnInterval
    ) -> IntervalQueueStats:
        """Evaluate one interval whose randomness was already drawn.

        The kernel is server-contiguous: it orders the requests by server
        once (identity for one server, a mask split for two, a stable
        argsort of the assignment beyond), gathers demands and arrival
        times once, runs the Lindley recursion over the whole flat array
        and restores arrival order with one scatter.  Its floats are
        byte-identical to running the single-server closed form (the
        test suite keeps it as an oracle) on each server's requests in
        turn, because

        * the order is stable, so each server's segment holds its
          requests in arrival order, exactly as a per-server index
          gather would;
        * the order-dependent steps -- the running sum, the running
          maximum and the pairwise service sum, whose summation tree
          depends on the operand length -- run per server on
          exact-length contiguous views, never across a segment
          boundary (the running sum calls ``np.add.accumulate``, the
          loop ``cumsum`` itself runs, without the method's argument
          handling);
        * every other pass (the speed division, both subtractions and
          the completion add) is elementwise, so the layout of the
          requests cannot change its results;
        * the server's free time enters as the first element of its
          running maximum rather than as an elementwise ``np.maximum``
          after it: ``max(free, runmax_j)`` is ``max`` over
          ``{free, slack_0..slack_j}`` either way, and a maximum is
          exact.
        """
        dt = t1 - t0
        n_servers = len(self._speeds)
        n = drawn.n
        carried_busy = [max(min(f, t1) - t0, 0.0) for f in self._free.tolist()]
        if n == 0:
            utils = tuple(min(c / dt, 1.0) for c in carried_busy)
            empty = np.empty(0)
            return IntervalQueueStats(empty, empty, 0, utils, *self._shed(t1))

        arrivals = drawn.times
        free = self._free
        speeds = self._speeds
        service_sums = [0.0] * n_servers
        if n_servers == 1:
            # One server: already contiguous, nothing to order.
            service = drawn.demands / speeds[0]
            cum = np.add.accumulate(service)
            service_sums[0] = _exact_sum(service, cum, n)
            buf = cum - service
            np.subtract(arrivals, buf, out=buf)
            if free[0] > buf[0]:
                buf[0] = free[0]
            np.maximum.accumulate(buf, out=buf)
            np.add(cum, buf, out=buf)
            free[0] = buf[-1]
            latencies = np.subtract(buf, arrivals, out=buf)
        else:
            u = drawn.dispatch_u
            if n_servers == 2:
                # Two servers (the big-cores-only configurations): one
                # comparison mask splits them, cheaper than an argsort.
                mask = u >= self._cdf[0]
                high = mask.nonzero()[0]
                order = np.concatenate(((~mask).nonzero()[0], high))
                counts = [n - len(high), len(high)]
            else:
                assigned, counts = self._assign(u)
                order = assigned.argsort(kind="stable")
            arr = arrivals[order]
            service = drawn.demands[order]
            np.divide(service, speeds.repeat(counts), out=service)
            # Server j owns the contiguous segment [lo, hi).
            segments = []
            hi = 0
            for j, c in enumerate(counts):
                if c:
                    segments.append((j, hi, hi + c))
                    hi += c
            cum = np.empty(n)
            for j, lo, hi in segments:
                seg = service[lo:hi]
                np.add.accumulate(seg, out=cum[lo:hi])
                service_sums[j] = _exact_sum(seg, cum[lo:hi], hi - lo)
            buf = cum - service
            np.subtract(arr, buf, out=buf)
            for j, lo, hi in segments:
                seg = buf[lo:hi]
                if free[j] > seg[0]:
                    seg[0] = free[j]
                np.maximum.accumulate(seg, out=seg)
            np.add(cum, buf, out=buf)
            for j, _, hi in segments:
                free[j] = buf[hi - 1]
            np.subtract(buf, arr, out=buf)
            latencies = np.empty(n)
            latencies[order] = buf

        utils = tuple(
            [min((c + s) / dt, 1.0) for c, s in zip(carried_busy, service_sums)]
        )
        return IntervalQueueStats(latencies, arrivals, n, utils, *self._shed(t1))

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
          shedding, backlog) replicates the Python-float walk of
          :meth:`run_drawn` expression by expression, in server order.
        """
        k = self.n_servers
        if k == 0:
            raise RuntimeError("reconfigure() must be called before run_epoch_drawn()")
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
                # Matches run_drawn's mask split: server 0 takes ~mask,
                # server 1 takes mask.
                assigned = (u_all >= self._cdf[0]).astype(np.intp)
            else:
                assigned = self._assign(u_all)[0]
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

        # Per-interval bookkeeping, column by column in server order:
        # run_drawn's Python-float walk expression by expression, with
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

    def _shed(self, now: float) -> tuple[float, float]:
        """Clamp backlog to the bound; return the seconds of delay shed
        and the backlog left, bit-identical to :meth:`backlog_s` at
        ``now`` (the same summation order, in the same walk)."""
        free = self._free
        bound = None if self.max_backlog_s is None else now + self.max_backlog_s
        shed = 0.0
        backlog = 0.0
        for f in free.tolist():
            if bound is not None and f > bound:
                shed += f - bound
                f = bound
            if f > now:
                backlog += f - now
        if shed:
            np.minimum(free, bound, out=free)
        return shed, backlog
