"""Reference (pre-optimization) interval engine: the byte-identity oracle.

:mod:`repro.sim.engine` runs the monitoring-interval loop over dense,
integer-indexed arrays with per-decision invariants hoisted out of the
loop.  This test-only module preserves the original, straightforward
implementation -- string-keyed dicts plumbed through every layer,
everything recomputed per interval, one :class:`IntervalObservation`
dataclass per interval -- for two purposes, mirroring how
:func:`oracles.lindley_completion_times_reference` anchors the queue
kernel:

* **oracle** -- ``test_engine_equivalence.py`` runs both engines over
  randomized scenarios and asserts bit-identical observations, which is
  what lets the optimized engine claim byte-identical output without a
  semantics bump of ``KERNEL_VERSION``;
* **benchmark baseline** -- ``benchmarks/test_bench_engine.py`` measures
  the optimized engine against this one on the same machine, so the
  measured speedup is hardware-independent.

Both engines consume the rng stream in exactly the same order;
:class:`ReferenceDispatchQueue` likewise keeps the original
``rng.choice``-based dispatch (the optimized queue evaluates the same
draws through a cheaper, stream-identical formulation).
:class:`PerServerDispatchQueue` keeps the per-server ``run_drawn``
kernel that the server-contiguous one replaced, as the oracle of
``test_queue_kernel.py``.

It also holds :func:`table_from_rows`, which builds a frozen table from
hand-made rows for the reference engine and test fixtures.

Import it with ``tests/`` on ``sys.path`` (``from engine_reference
import ...``); it is not part of the installed package.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from oracles import aggregate_pressure
from repro.hardware.affinity import AffinityManager
from repro.hardware.counters import PerfCounters
from repro.hardware.cores import CoreKind
from repro.hardware.dvfs import DVFSController
from repro.hardware.power import EnergyMeter, PowerModel
from repro.hardware.soc import KernelConfig, Platform
from repro.loadgen.traces import LoadTrace
from repro.policies.base import ManagerContext, TaskManager
from repro.sim.contention import ContentionModel
from repro.sim.engine import EngineConfig
from repro.sim.latency import LatencySample
from repro.sim.queueing import DispatchQueue, IntervalQueueStats
from repro.sim.records import (
    ExperimentResult,
    IntervalObservation,
    ObservationTable,
)
from repro.workloads.base import LatencyCriticalWorkload, lc_server_speeds
from repro.workloads.batch import BatchJobSet

#: From this many servers :class:`PerServerDispatchQueue` runs its
#: bookkeeping in numpy, as the kernel it preserves did.
_SCALAR_SERVER_LIMIT = 8


def table_from_rows(rows: Sequence[IntervalObservation]) -> ObservationTable:
    """A frozen table holding ``rows``, in order."""
    rows = tuple(rows)
    table = ObservationTable(len(rows))
    for row in rows:
        table.append(row)
    return table.freeze()


def _reference_lindley(
    arrivals: np.ndarray, service: np.ndarray, free0: float
) -> np.ndarray:
    """The pre-optimization (allocation-per-step) closed-form kernel."""
    cum = np.cumsum(service)
    shifted_cumsum = cum - service
    slack = np.maximum.accumulate(arrivals - shifted_cumsum)
    return cum + np.maximum(slack, free0)


class ReferenceDispatchQueue(DispatchQueue):
    """The pre-optimization queue hot path, seed-verbatim.

    Consumes the rng stream identically to the optimized
    :class:`~repro.sim.queueing.DispatchQueue`; kept so the engine
    benchmark's baseline pays the original per-interval cost
    (``rng.choice`` dispatch, all-numpy small-array bookkeeping).
    """

    def backlog_s(self, now: float) -> float:
        if self.n_servers == 0:
            return 0.0
        return float(np.sum(np.maximum(self._free - now, 0.0)))

    def _draw_arrivals(
        self, arrival_rate: float, t0: float, t1: float
    ) -> tuple[int, np.ndarray]:
        dt = t1 - t0
        if self.burstiness <= 1.0:
            n = int(self.rng.poisson(arrival_rate * dt))
            return n, np.sort(self.rng.uniform(t0, t1, size=n))
        mean_batch = self.burstiness
        n_bursts = int(self.rng.poisson(arrival_rate * dt / mean_batch))
        if n_bursts == 0:
            return 0, np.empty(0)
        sizes = self.rng.geometric(1.0 / mean_batch, size=n_bursts)
        epochs = np.sort(self.rng.uniform(t0, t1, size=n_bursts))
        times = np.repeat(epochs, sizes)
        return int(times.size), times

    def _shed(self, now: float) -> float:
        if self.max_backlog_s is None:
            return 0.0
        bound = now + self.max_backlog_s
        excess = np.maximum(self._free - bound, 0.0)
        if np.any(excess > 0):
            np.minimum(self._free, bound, out=self._free)
        return float(np.sum(excess))

    def run_interval(
        self, t0, t1, arrival_rate, demand_sampler
    ) -> IntervalQueueStats:
        if self.n_servers == 0:
            raise RuntimeError("reconfigure() must be called before run_interval()")
        if t1 <= t0:
            raise ValueError("interval must have positive duration")
        if arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")

        dt = t1 - t0
        n, burst_times = self._draw_arrivals(arrival_rate, t0, t1)
        carried_busy = np.maximum(np.minimum(self._free, t1) - t0, 0.0)
        if n == 0:
            utils = np.minimum(carried_busy / dt, 1.0)
            shed = self._shed(t1)
            return IntervalQueueStats(
                latencies_s=np.empty(0),
                arrival_times_s=np.empty(0),
                arrivals=0,
                utilizations=tuple(float(u) for u in utils),
                shed_work_s=shed,
                backlog_s=self.backlog_s(t1),
            )

        arrivals = burst_times
        demands = demand_sampler(self.rng, n)
        assigned = self.rng.choice(self.n_servers, size=n, p=self._weights)

        latencies = np.empty(n)
        service_time_per_server = np.zeros(self.n_servers)
        free = self._free
        speeds = self._speeds
        for k in range(self.n_servers):
            (idx,) = np.nonzero(assigned == k)
            if len(idx) == 0:
                continue
            service = demands[idx] / speeds[k]
            service_time_per_server[k] = float(np.sum(service))
            arr_k = arrivals[idx]
            completion = _reference_lindley(arr_k, service, free[k])
            latencies[idx] = completion - arr_k
            free[k] = completion[-1]

        utils = np.minimum((carried_busy + service_time_per_server) / dt, 1.0)
        shed = self._shed(t1)
        return IntervalQueueStats(
            latencies_s=latencies,
            arrival_times_s=arrivals,
            arrivals=n,
            utilizations=tuple(float(u) for u in utils),
            shed_work_s=shed,
            backlog_s=self.backlog_s(t1),
        )


class PerServerDispatchQueue(DispatchQueue):
    """The per-server ``run_drawn`` kernel, kept as the byte-identity oracle.

    Before the server-contiguous kernel, :meth:`DispatchQueue.run_drawn`
    grouped requests with one index array per server and ran a gather,
    the six-op Lindley kernel and a scatter for each server in turn.
    This subclass keeps that implementation verbatim (bookkeeping
    included), so the property tests can compare every output of the
    current kernel against it by bytes.
    """

    def _group_from_u(self, u: np.ndarray) -> list[np.ndarray] | None:
        k = self.n_servers
        if k == 1:
            return None
        if k == 2:
            mask = u >= self._cdf[0]
            return [(~mask).nonzero()[0], mask.nonzero()[0]]
        cdf = self._cdf
        if k > 9:
            assigned = cdf.searchsorted(u, side="right")
        else:
            assigned = (u >= cdf[0]).astype(np.intp)
            for j in range(1, k - 1):
                assigned += u >= cdf[j]
        return [(assigned == j).nonzero()[0] for j in range(k)]

    def run_drawn(self, t0, t1, drawn) -> IntervalQueueStats:
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
            shed, _ = self._shed(t1)
            return IntervalQueueStats(
                latencies_s=np.empty(0),
                arrival_times_s=np.empty(0),
                arrivals=0,
                utilizations=utils,
                shed_work_s=shed,
                backlog_s=self.backlog_s(t1),
            )

        arrivals = drawn.times
        demands = drawn.demands
        groups = self._group_from_u(drawn.dispatch_u)

        service_sums = [0.0] * n_servers
        free = self._free
        speeds = self._speeds
        maximum = np.maximum
        if groups is None:
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
        shed, _ = self._shed(t1)
        return IntervalQueueStats(
            latencies_s=latencies,
            arrival_times_s=arrivals,
            arrivals=n,
            utilizations=utils,
            shed_work_s=shed,
            backlog_s=self.backlog_s(t1),
        )


def _reference_summarize(
    latencies_ms: np.ndarray, percentile: float, *, idle_latency_ms: float = 0.0
) -> LatencySample:
    """The original ``np.quantile``-based interval summary."""
    if not 0.0 < percentile < 1.0:
        raise ValueError("percentile must be a fraction in (0, 1)")
    latencies_ms = np.asarray(latencies_ms, dtype=float)
    if latencies_ms.size == 0:
        return LatencySample(
            tail_latency_ms=idle_latency_ms,
            mean_latency_ms=idle_latency_ms,
            n_requests=0,
        )
    return LatencySample(
        tail_latency_ms=float(np.quantile(latencies_ms, percentile)),
        mean_latency_ms=float(np.mean(latencies_ms)),
        n_requests=int(latencies_ms.size),
    )


class ReferenceIntervalSimulator:
    """The seed implementation of the interval co-simulator, verbatim."""

    def __init__(
        self,
        platform: Platform,
        workload: LatencyCriticalWorkload,
        trace: LoadTrace,
        manager: TaskManager,
        *,
        batch_jobs: BatchJobSet | None = None,
        contention: ContentionModel | None = None,
        kernel: KernelConfig | None = None,
        engine_config: EngineConfig | None = None,
        seed: int = 0,
    ):
        self.platform = platform
        self.workload = workload
        self.trace = trace
        self.manager = manager
        self.batch_jobs = batch_jobs
        self.contention = contention or ContentionModel()
        self.kernel = kernel or KernelConfig(cpuidle_enabled=False)
        self.config = engine_config or EngineConfig()

        self._rng = np.random.default_rng(seed)
        scale = workload.sim_scale
        self._queue = ReferenceDispatchQueue(
            rng=self._rng,
            balance_exponent=self.config.balance_exponent,
            max_backlog_s=self.config.max_backlog_s * scale,
            burstiness=workload.burstiness,
        )
        self._affinity = AffinityManager(platform)
        self._dvfs = DVFSController(platform.clusters)
        self._power = PowerModel(platform, self.kernel)
        self._counters = PerfCounters(
            platform, self.kernel, juno_perf_bug=self.config.juno_perf_bug
        )
        self._meter = EnergyMeter()
        self._started = False

    def run(self, n_intervals: int | None = None) -> ExperimentResult:
        """Run the experiment and return its observations."""
        if self._started:
            raise RuntimeError("an IntervalSimulator instance runs exactly once")
        self._started = True

        total = n_intervals or self.trace.n_intervals(self.config.interval_s)
        if total <= 0:
            raise ValueError("the trace is shorter than one interval")
        self.manager.start(
            ManagerContext(
                platform=self.platform,
                workload=self.workload,
                interval_s=self.config.interval_s,
                rng=np.random.default_rng(self._rng.integers(2**63)),
                batch_present=self.batch_jobs is not None,
            )
        )

        observations = [self._run_interval(i) for i in range(total)]
        return ExperimentResult(
            table_from_rows(observations),
            workload_name=self.workload.name,
            manager_name=self.manager.name,
            target_latency_ms=self.workload.target_latency_ms,
            interval_s=self.config.interval_s,
        )

    def _run_interval(self, index: int) -> IntervalObservation:
        dt = self.config.interval_s
        t0 = index * dt
        t1 = t0 + dt
        load = self.trace.load_at(t0 + dt / 2.0)

        decision = self.manager.decide()
        config = decision.config
        self._dvfs.set_frequency("big", decision.big_freq_ghz)
        self._dvfs.set_frequency("small", decision.small_freq_ghz)

        n_free = self.platform.n_cores - config.total_cores
        collocating = decision.run_batch and self.batch_jobs is not None
        placement = self._affinity.apply(
            config, n_batch_jobs=n_free if collocating else 0
        )

        mem_by_core = {
            cid: self.batch_jobs.program_for_job(job).mem_intensity
            for cid, job in placement.batch_assignment.items()
        }
        pressure = aggregate_pressure(mem_by_core, self.platform.big.core_ids)
        slow_big = self.contention.lc_slowdown(
            CoreKind.BIG, pressure, sensitivity=self.workload.contention_sensitivity
        )
        slow_small = self.contention.lc_slowdown(
            CoreKind.SMALL, pressure, sensitivity=self.workload.contention_sensitivity
        )

        speeds = lc_server_speeds(
            self.workload,
            self.platform,
            config,
            big_slowdown=slow_big,
            small_slowdown=slow_small,
        )
        self._queue.reconfigure(
            speeds, now=t0, migration=placement.migration_event
        )
        stats = self._queue.run_interval(
            t0, t1, self.workload.sim_arrival_rate(load), self.workload.sample_demands
        )
        latencies_ms = self.workload.reported_latency_ms(stats.latencies_s)
        latencies_ms = latencies_ms + self._migration_latency_extra_ms(
            placement, stats, t0, len(speeds)
        )
        sample = _reference_summarize(
            latencies_ms,
            self.workload.qos_percentile,
            idle_latency_ms=self.workload.idle_latency_ms,
        )

        true_ips = self._true_ips(placement, stats, decision)
        dense_ips = np.array(
            [float(true_ips.get(cid, 0.0)) for cid in self.platform.core_ids]
        )
        drawn, _ = self._counters.read_array(dense_ips, self._rng)
        counter_sample = {
            cid: float(drawn[i]) for i, cid in enumerate(self.platform.core_ids)
        }
        big_batch = sum(
            counter_sample[cid]
            for cid in placement.batch_assignment
            if cid in self.platform.big.core_ids
        )
        small_batch = sum(
            counter_sample[cid]
            for cid in placement.batch_assignment
            if cid in self.platform.small.core_ids
        )
        batch_instructions = (
            sum(true_ips[cid] for cid in placement.batch_assignment) * dt
        )
        garbage = counter_sample != {
            cid: true_ips.get(cid, 0.0) for cid in self.platform.core_ids
        }

        utilizations = self._utilizations(placement, stats)
        breakdown = self._power.breakdown(
            decision.big_freq_ghz, decision.small_freq_ghz, utilizations
        )
        self._meter.record(breakdown, dt)

        arrivals_real = stats.arrivals * self.workload.sim_scale
        arrival_rps = arrivals_real / dt
        tail = sample.tail_latency_ms
        observation = IntervalObservation(
            index=index,
            t_start_s=t0,
            duration_s=dt,
            offered_load=load,
            measured_load=min(arrival_rps / self.workload.max_load_rps, 1.0),
            arrival_rps=arrival_rps,
            n_requests=int(arrivals_real),
            tail_latency_ms=tail,
            mean_latency_ms=sample.mean_latency_ms,
            qos_met=self.workload.qos_met(tail),
            tardiness=self.workload.tardiness(tail),
            power_w=breakdown.total_w,
            energy_j=breakdown.total_w * dt,
            big_ips=big_batch,
            small_ips=small_batch,
            counter_garbage=garbage,
            decision=decision,
            config_label=config.label,
            big_freq_ghz=decision.big_freq_ghz,
            small_freq_ghz=decision.small_freq_ghz,
            migrated_cores=placement.migrated_cores,
            migration_event=placement.migration_event,
            mean_utilization=stats.mean_utilization,
            backlog_s=self._queue.backlog_s(t1) / self.workload.sim_scale,
            shed_work_s=stats.shed_work_s / self.workload.sim_scale,
            batch_instructions=batch_instructions,
        )
        self.manager.observe(observation)
        return observation

    def _migration_latency_extra_ms(
        self, placement, stats, t0: float, n_servers: int
    ) -> np.ndarray:
        if stats.arrivals == 0:
            return np.zeros(0)
        extra = np.zeros(stats.arrivals)
        if not placement.migration_event:
            return extra
        penalty = self.config.migration_penalty_s
        if penalty <= 0:
            return extra
        fraction = min(placement.migrated_cores / max(n_servers, 1), 1.0)
        in_window = stats.arrival_times_s < t0 + penalty
        stalled = in_window & (self._rng.random(stats.arrivals) < fraction)
        remaining_s = t0 + penalty - stats.arrival_times_s[stalled]
        extra[stalled] = remaining_s * 1e3
        return extra

    def _true_ips(self, placement, stats, decision) -> dict[str, float]:
        true_ips: dict[str, float] = {}
        mem_by_core = {
            cid: self.batch_jobs.program_for_job(job).mem_intensity
            for cid, job in placement.batch_assignment.items()
        }
        pressure = aggregate_pressure(mem_by_core, self.platform.big.core_ids)
        for cid, job in placement.batch_assignment.items():
            program = self.batch_jobs.program_for_job(job)
            cluster = self.platform.cluster_of(cid)
            freq = (
                decision.big_freq_ghz
                if cluster is self.platform.big
                else decision.small_freq_ghz
            )
            lc_pressure = (
                self.workload.mem_intensity
                if decision.config.uses_cluster(cluster.kind)
                else 0.0
            )
            factor = self.contention.batch_throughput_factor(
                cluster.kind,
                program.mem_intensity,
                pressure,
                lc_pressure=lc_pressure,
            )
            true_ips[cid] = program.ips(
                cluster.core_type, freq, throughput_factor=factor
            )
        used = placement.lc_cores[: self.workload.n_threads]
        for core_id, util in zip(used, stats.utilizations):
            cluster = self.platform.cluster_of(core_id)
            freq = (
                decision.big_freq_ghz
                if cluster is self.platform.big
                else decision.small_freq_ghz
            )
            true_ips[core_id] = (
                self.workload.lc_ipc_fraction
                * cluster.core_type.microbench_ips(freq)
                * util
            )
        return true_ips

    def _utilizations(self, placement, stats) -> dict[str, float]:
        utils: dict[str, float] = {}
        used = placement.lc_cores[: self.workload.n_threads]
        for core_id, util in zip(used, stats.utilizations):
            utils[core_id] = float(util)
        for core_id in placement.batch_assignment:
            utils[core_id] = 1.0
        return utils


def run_reference_experiment(
    platform: Platform,
    workload: LatencyCriticalWorkload,
    trace: LoadTrace,
    manager: TaskManager,
    *,
    batch_jobs: BatchJobSet | None = None,
    contention: ContentionModel | None = None,
    kernel: KernelConfig | None = None,
    engine_config: EngineConfig | None = None,
    seed: int = 0,
    n_intervals: int | None = None,
) -> ExperimentResult:
    """One-call wrapper around :class:`ReferenceIntervalSimulator`."""
    simulator = ReferenceIntervalSimulator(
        platform,
        workload,
        trace,
        manager,
        batch_jobs=batch_jobs,
        contention=contention,
        kernel=kernel,
        engine_config=engine_config,
        seed=seed,
    )
    return simulator.run(n_intervals)
