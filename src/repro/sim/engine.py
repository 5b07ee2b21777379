"""Interval co-simulator: trace -> manager -> platform -> observations.

This is the harness that plays the role of the paper's physical testbed.
Each monitoring interval (1 s by default, Section 3.6) it:

1. asks the task manager for a :class:`~repro.policies.base.Decision`;
2. applies it -- sets the per-cluster DVFS, pins the latency-critical
   workload (charging a migration penalty if the core set changed), and
   spawns one batch job per leftover core when collocation is on;
3. runs the workload's queueing replica for the interval under the
   resulting per-core speeds (including contention slowdowns);
4. integrates power over the interval and samples the perf counters
   (through the Juno-bug model);
5. records the interval's observation row and hands the same row to the
   manager.

Everything stochastic draws from a single seeded generator, so a run is a
pure function of ``(platform, workload, trace, manager, seed)``.

Hot-path layout
---------------
Per-core state lives in dense ``np.ndarray`` buffers indexed by the
platform's stable :attr:`~repro.hardware.soc.Platform.core_index` rather
than in string-keyed dicts, and everything derivable from a
:class:`~repro.policies.base.Decision` alone -- placement-driven batch
IPS and contention pressure, contention-adjusted queue speeds, power-law
coefficients, microbenchmark IPS at the decision's operating points -- is
computed once per distinct decision (:class:`_DecisionState`) and reused.
When a manager repeats its previous decision (the common case for static
and converged table-driven policies) the engine skips the affinity
re-apply, pressure recomputation and queue reconfiguration outright.
Within an interval the queue evaluates every server in one
server-contiguous pass (:meth:`~repro.sim.queueing.DispatchQueue.run_drawn`),
and cluster power is accumulated from the utilization tuple as Python
floats; the dense per-core IPS vector is only built when the
perf-counter bug is armed.  The interval ends with one
:class:`~repro.sim.records.IntervalObservation`, built positionally from
the Python scalars already at hand: the table stores it and the manager
observes the same object, so no field is written to numpy and read
back.  Offered loads are read from a list converted once per run, and
a migration's latency adder touches only the stalled requests.
The optimization is implementation-only: the rng stream and every
observation are bit-identical to the reference implementation that the
test suite preserves as an oracle, which the equivalence tests enforce;
``KERNEL_VERSION`` therefore did not change.

On top of the per-interval fast path sits the *decision-epoch* fast
path: when the manager can prove its decision stays fixed for a run of
upcoming intervals (``stable_horizon``/``epoch_continue``, see
:class:`~repro.policies.base.TaskManager`), the engine draws each
interval's randomness in stream order but defers all queue, latency,
power and bookkeeping arithmetic to one batched pass over the whole
run (:meth:`~repro.sim.queueing.DispatchQueue.run_epoch_drawn`, bulk
:meth:`~repro.sim.records.ObservationTable.extend`).  This too is
implementation-only -- the epoch differential tests pin byte-identity
against the scalar path -- and falls back to the scalar loop at every
decision boundary, migration, armed perf-counter bug, or wide server
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hardware.affinity import AffinityManager, Placement
from repro.hardware.counters import PerfCounters
from repro.hardware.cores import CoreKind
from repro.hardware.dvfs import DVFSController
from repro.hardware.power import (
    ClusterPowerCoefficients,
    EnergyMeter,
    PowerBreakdown,
    PowerModel,
)
from repro.hardware.soc import KernelConfig, Platform
from repro.loadgen.traces import LoadTrace
from repro.policies.base import Decision, ManagerContext, TaskManager
from repro.sim.contention import ContentionModel, aggregate_pressure_indexed
from repro.sim.latency import linear_quantile, linear_quantile_sorted
from repro.sim.queueing import DispatchQueue, DrawnInterval, exact_row_sums
from repro.sim.records import ExperimentResult, IntervalObservation, ObservationTable
from repro.workloads.base import LatencyCriticalWorkload, lc_server_speeds
from repro.workloads.batch import BatchJobSet

#: Cost of moving the latency-critical workload between cores: thread
#: migration plus cold L2, order of tens of milliseconds (Section 2 cites
#: Rubik: core transitions are far more costly than DVFS changes).
DEFAULT_MIGRATION_PENALTY_S = 0.060

#: Per-server backlog bound; clients time out and shed beyond this.
DEFAULT_MAX_BACKLOG_S = 4.0

#: Epoch length cap: bounds the padded per-server matrices of the epoch
#: queue kernel (working-set control).  The request budget below is the
#: real memory bound (the matrices hold one row per interval, one
#: column per request); the block cap only binds at trough rates, where
#: rows are narrow, so it can sit high enough that per-epoch fixed
#: costs amortize out over quiet stretches.
_EPOCH_BLOCK = 1024

#: Request cap per epoch: once the drawn intervals carry this many
#: requests the epoch commits and a fresh one starts.  Keeps the epoch
#: kernel's padded per-server matrices cache-resident at high arrival
#: rates -- the regime where the scalar kernel's exact-length arrays fit
#: in L1 and an unbounded epoch's multi-megabyte matrices would turn the
#: batching win into a memory-bandwidth loss.
_EPOCH_REQUEST_BUDGET = 8192

#: Minimum intervals an epoch must be able to amortize over: when the
#: expected per-interval request count is so high that the request
#: budget would truncate the epoch below this, the per-epoch setup
#: (padding, scans, asarray round-trips) cannot pay for itself and the
#: interval runs scalar instead.  Purely a routing heuristic -- both
#: paths produce byte-identical observations.
_EPOCH_MIN_INTERVALS = 16

#: Below this expected per-interval request count an interval is
#: "light": the batched kernel beats the scalar one even for runs of a
#: couple of intervals, so any horizon >= 2 batches.  Heavier intervals
#: only approach break-even on long runs, so they additionally demand a
#: provable horizon of ``_EPOCH_MIN_INTERVALS`` -- and when an epoch
#: still ends early (a measured-load bucket flap the offered-load
#: horizon could not see), epoch attempts pause for a stretch of scalar
#: intervals rather than paying the setup again at the same boundary.
_EPOCH_LIGHT_REQUESTS = 64
_EPOCH_COOLDOWN_INTERVALS = 32

#: Build an observation row from its 26 values, in field order.
_make_row = IntervalObservation._make


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the co-simulator, with the paper's defaults."""

    interval_s: float = 1.0
    migration_penalty_s: float = DEFAULT_MIGRATION_PENALTY_S
    max_backlog_s: float = DEFAULT_MAX_BACKLOG_S
    balance_exponent: float = 0.55
    juno_perf_bug: bool = True
    #: Batch decision-stable interval runs through the epoch kernel.
    #: Observationally invisible (the epoch differential tests pin
    #: byte-identity); exposed so tests and benchmarks can force the
    #: scalar path.
    epoch_fast_path: bool = True

    def __post_init__(self) -> None:
        # NaN slips past every ordered comparison below (a NaN backlog
        # bound never sheds), so non-finite values are rejected first.
        for name in (
            "interval_s",
            "migration_penalty_s",
            "max_backlog_s",
            "balance_exponent",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.migration_penalty_s < 0:
            raise ValueError("migration_penalty_s must be non-negative")
        if self.max_backlog_s <= 0:
            raise ValueError("max_backlog_s must be positive")


class _DecisionState:
    """Every per-interval quantity that depends on the decision alone.

    Built once per distinct :class:`~repro.policies.base.Decision` and
    cached for the rest of the run; the interval loop then only touches
    what genuinely varies interval to interval (queue randomness and the
    resulting utilizations).  All floating-point values are produced by
    the same expressions, in the same order, as the reference engine, so
    reusing them is observationally invisible.
    """

    __slots__ = (
        "speeds",
        "n_servers",
        "config_label",
        "big_freq_ghz",
        "small_freq_ghz",
        "lc_used_index",
        "lc_ips_coeff",
        "lc_index_arr",
        "lc_coeff_arr",
        "batch_big_index",
        "batch_small_index",
        "big_batch_sum",
        "small_batch_sum",
        "batch_ips_sum",
        "true_ips_base",
        "utils_base",
        "big_power",
        "small_power",
    )

    speeds: np.ndarray
    n_servers: int
    config_label: str
    big_freq_ghz: float
    small_freq_ghz: float
    lc_used_index: list[int]
    lc_ips_coeff: list[float]
    lc_index_arr: np.ndarray
    lc_coeff_arr: np.ndarray
    batch_big_index: list[int]
    batch_small_index: list[int]
    big_batch_sum: float
    small_batch_sum: float
    batch_ips_sum: float
    true_ips_base: np.ndarray
    utils_base: list[float]


class IntervalSimulator:
    """Co-simulates one latency-critical workload, batch jobs and a manager."""

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
        # Hipster's deployment disables CPUidle to dodge the Juno perf bug
        # (Section 3.7); that is the sensible default here too.
        self.kernel = kernel or KernelConfig(cpuidle_enabled=False)
        self.config = engine_config or EngineConfig()

        self._rng = np.random.default_rng(seed)
        scale = workload.sim_scale
        # The migration cost is modelled as a latency adder on requests
        # arriving during the (wall-clock) migration window -- see
        # _add_migration_latency -- so the queue itself only needs the
        # backlog bound (dilated, like every queue-internal delay).
        self._queue = DispatchQueue(
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

        # Hot-path invariants and caches.
        self._decision_states: dict[Decision, _DecisionState] = {}
        self._microbench_ips_memo: dict[tuple[str, float], float] = {}
        self._last_decision: Decision | None = None
        self._state: _DecisionState | None = None
        self._power_gate = self.kernel.cpuidle_enabled
        self._counters_armed = self._counters.bug_armed
        self._n_big = platform.big.n_cores
        self._rest_of_system_w = platform.rest_of_system_w
        # Per-run invariants of the workload, bound once (attribute and
        # bound-method creation is measurable at ~100k intervals/s).
        # Row fields are stored as float64, so the few that configuration
        # may give as ints are converted once here: the row the manager
        # observes then holds exactly what the table reads back.
        self._demand_sampler = workload.sample_demands
        self._reported_latency_ms = workload.reported_latency_ms
        self._max_load_rps = workload.max_load_rps
        self._sim_scale = workload.sim_scale
        self._qos_percentile = workload.qos_percentile  # validated by workload
        self._idle_latency_ms = float(workload.idle_latency_ms)
        self._target_ms = workload.target_latency_ms  # qos_met / tardiness
        self._dt = float(self.config.interval_s)

        # The run's offered loads (filled by run(): an array for the
        # epoch path's lookahead, a list for the scalar loop) and the
        # epoch engagement counters (read by tests and the benchmark
        # harness).
        self._loads: np.ndarray | None = None
        self._loads_list: list[float] = []
        self.epochs_run = 0
        self.epoch_intervals = 0

    @property
    def energy_meter(self) -> EnergyMeter:
        """The run's cumulative energy registers."""
        return self._meter

    @property
    def dvfs(self) -> DVFSController:
        """The run's DVFS controller (transition statistics live here)."""
        return self._dvfs

    @property
    def affinity(self) -> AffinityManager:
        """The run's affinity manager (migration statistics live here)."""
        return self._affinity

    def run(self, n_intervals: int | None = None) -> ExperimentResult:
        """Run the experiment and return its observations."""
        if self._started:
            raise RuntimeError("an IntervalSimulator instance runs exactly once")
        self._started = True

        if n_intervals is None:
            total = self.trace.n_intervals(self.config.interval_s)
            if total <= 0:
                raise ValueError("the trace is shorter than one interval")
        elif n_intervals <= 0:
            raise ValueError("n_intervals must be positive")
        else:
            total = n_intervals
        self.manager.start(
            ManagerContext(
                platform=self.platform,
                workload=self.workload,
                interval_s=self.config.interval_s,
                rng=np.random.default_rng(self._rng.integers(2**63)),
                batch_present=self.batch_jobs is not None,
            )
        )

        # The whole run's interval-midpoint offered loads, computed once,
        # so the epoch and scalar paths read the identical floats.
        dt = self._dt
        self._loads = self.trace.interval_loads(total, dt)
        self._loads_list = self._loads.tolist()

        manager = self.manager
        manager_type = type(manager)
        # The epoch fast path needs the manager to opt into *both* sides
        # of the contract, and the perf-counter bug consumes rng draws
        # per interval when armed, which only the scalar path replays.
        epoch_capable = (
            self.config.epoch_fast_path
            and not self._counters_armed
            and manager_type.stable_horizon is not TaskManager.stable_horizon
            and manager_type.epoch_continue is not TaskManager.epoch_continue
        )
        observe_overridden = manager_type.observe is not TaskManager.observe
        # Expected sim requests per interval at load 1.0 (the per-load
        # factor of the arrival rate the kernel sees).
        epoch_rate_scale = self._max_load_rps / self._sim_scale * dt
        # Scalar intervals left before heavy-rate epoch attempts resume
        # after one broke early (see _EPOCH_COOLDOWN_INTERVALS).
        epoch_cooldown = 0

        # Struct-of-arrays result store: one preallocated typed column
        # per observation field, appended in place each interval -- no
        # per-interval dataclass construction on the hot path.
        table = ObservationTable(total)
        i = 0
        while i < total:
            decision = manager.decide()
            last = self._last_decision
            repeated = decision is last or decision == last
            if repeated:
                # Decision-unchanged fast path: placement, pressure,
                # speeds and queue configuration are all exactly what
                # they already are; re-applying them (as the reference
                # engine does) is a chain of guaranteed no-ops.
                state = self._state
                migrated_cores = 0
                migration_event = False
            else:
                state, migrated_cores, migration_event = self._apply_decision(
                    decision, i * dt
                )
            # An epoch starts only on an *observed* repeat: every decision
            # boundary runs one scalar interval first.  Cheap (one interval
            # per boundary) and it keeps subclassed managers whose decide()
            # mutates state per call off the batched path even when they
            # inherit an epoch-capable contract.
            if epoch_capable and repeated and i + 1 < total:
                expected_requests = self._loads_list[i] * epoch_rate_scale
                heavy = expected_requests > _EPOCH_LIGHT_REQUESTS
                # Light intervals batch profitably even in runs of two;
                # heavy ones only amortize the epoch setup over a long
                # provable run, and back off for a stretch when a
                # measured-load flap still cut one short.
                if (
                    expected_requests * _EPOCH_MIN_INTERVALS
                    <= _EPOCH_REQUEST_BUDGET
                    and (not heavy or epoch_cooldown == 0)
                ):
                    cap = min(_EPOCH_BLOCK, total - i)
                    horizon = min(
                        int(manager.stable_horizon(self._loads[i : i + cap])),
                        cap,
                    )
                    if horizon >= (_EPOCH_MIN_INTERVALS if heavy else 2):
                        ran = self._run_epoch(
                            i, horizon, decision, state, table, observe_overridden
                        )
                        if heavy and ran < _EPOCH_MIN_INTERVALS:
                            epoch_cooldown = _EPOCH_COOLDOWN_INTERVALS
                        i += ran
                        continue
            if epoch_cooldown:
                epoch_cooldown -= 1
            self._run_interval(
                i, table, decision, state, migrated_cores, migration_event
            )
            i += 1
        return ExperimentResult(
            table.freeze(),
            workload_name=self.workload.name,
            manager_name=self.manager.name,
            target_latency_ms=self.workload.target_latency_ms,
            interval_s=self.config.interval_s,
        )

    # ------------------------------------------------------------------
    # one monitoring interval
    # ------------------------------------------------------------------

    def _run_interval(
        self,
        index: int,
        table: ObservationTable,
        decision: Decision,
        state: _DecisionState,
        migrated_cores: int,
        migration_event: bool,
    ) -> None:
        dt = self._dt
        t0 = index * dt
        t1 = t0 + dt
        load = self._loads_list[index]
        scale = self._sim_scale

        # Latency-critical queueing replica.  The inlined rate expression
        # is sim_arrival_rate() verbatim (same operation order).
        stats = self._queue.run_interval(
            t0, t1, load * self._max_load_rps / scale, self._demand_sampler
        )
        n = stats.arrivals
        # Inlined summarize_latencies (percentile validated once at start;
        # latencies_ms is a fresh float64 array here): same quantile and
        # mean arithmetic, minus the per-interval wrapper work.  The mean
        # runs first -- pairwise summation is order-sensitive and the
        # quantile then partitions the buffer in place.
        if n == 0:
            tail = mean_latency = self._idle_latency_ms
        else:
            # The kernel's latency buffer is fresh: convert it in place.
            latencies_ms = self._reported_latency_ms(
                stats.latencies_s, out=stats.latencies_s
            )
            if migration_event and self.config.migration_penalty_s > 0:
                self._add_migration_latency(
                    latencies_ms, migrated_cores, stats.arrival_times_s, t0,
                    state.n_servers,
                )
            mean_latency = float(np.add.reduce(latencies_ms)) / n
            tail = linear_quantile(
                latencies_ms, self._qos_percentile, destructive=True
            )

        # Batch execution and perf counters (dense, core-indexed).  Only
        # an armed perf-counter bug reads the per-core IPS vector, whose
        # per-server utilizations scatter in by fancy index (unique
        # targets, so the identical floats the old element loop wrote);
        # otherwise the batch sums are the decision-state constants.
        utilizations = stats.utilizations
        garbage = False
        if self._counters_armed:
            lc_index = state.lc_index_arr
            true_ips = state.true_ips_base.copy()
            true_ips[lc_index] = state.lc_coeff_arr * np.asarray(
                utilizations[: lc_index.size]
            )
            counter_vec, garbage = self._counters.read_array(true_ips, self._rng)
        if garbage:
            big_batch = sum(
                (float(counter_vec[i]) for i in state.batch_big_index), 0.0
            )
            small_batch = sum(
                (float(counter_vec[i]) for i in state.batch_small_index), 0.0
            )
        else:
            big_batch = state.big_batch_sum
            small_batch = state.small_batch_sum

        # Power and energy (per-operating-point coefficients cached in
        # the decision state; arithmetic identical to PowerModel's).  The
        # per-core utilizations are plain Python floats throughout, which
        # is what cluster_power_w converts each element to anyway.
        utils = state.utils_base.copy()
        for i, u in zip(state.lc_used_index, utilizations):
            utils[i] = u
        gate = self._power_gate
        n_big = self._n_big
        breakdown = PowerBreakdown(
            state.big_power.cluster_power_w(utils[:n_big], power_gate_idle=gate),
            state.small_power.cluster_power_w(utils[n_big:], power_gate_idle=gate),
            self._rest_of_system_w,
        )
        self._meter.record(breakdown, dt)
        power_w = breakdown.total_w

        # One row, built positionally from plain Python scalars: the
        # table stores it and the manager observes the same object.
        arrivals_real = n * scale
        arrival_rps = arrivals_real / dt
        target = self._target_ms
        row = _make_row(
            (
                index,
                t0,  # t_start_s
                dt,  # duration_s
                load,  # offered_load
                min(arrival_rps / self._max_load_rps, 1.0),  # measured_load
                arrival_rps,
                int(arrivals_real),  # n_requests
                tail,  # tail_latency_ms
                mean_latency,  # mean_latency_ms
                tail <= target,  # qos_met
                tail / target,  # tardiness
                power_w,
                power_w * dt,  # energy_j
                big_batch,  # big_ips
                small_batch,  # small_ips
                garbage,  # counter_garbage
                decision,
                state.config_label,
                state.big_freq_ghz,
                state.small_freq_ghz,
                migrated_cores,
                migration_event,
                stats.mean_utilization,
                stats.backlog_s / scale,  # backlog_s
                stats.shed_work_s / scale,  # shed_work_s
                state.batch_ips_sum * dt,  # batch_instructions
            )
        )
        table.append(row)
        self.manager.observe(row)

    # ------------------------------------------------------------------
    # the decision-epoch fast path
    # ------------------------------------------------------------------

    def _run_epoch(
        self,
        start: int,
        horizon: int,
        decision: Decision,
        state: _DecisionState,
        table: ObservationTable,
        observe_overridden: bool,
    ) -> int:
        """Evaluate a run of decision-stable intervals in one batched pass.

        Byte-identity with the scalar loop holds because randomness is
        still consumed interval by interval, in stream order, through
        :meth:`DispatchQueue.draw_interval` -- and each drawn interval is
        validated through the manager's ``epoch_continue`` *before* the
        next one is drawn, so the stream never runs ahead of a decision
        the scalar path would also have made (no rollback exists, none is
        needed).  Only the arithmetic is deferred and batched: the queue
        kernel, the latency summaries (rows of one padded matrix,
        reduced at their exact lengths), the power
        law (column-sequential accumulation in core order) and the
        observation rows (one bulk ``extend``).  ``observe`` is replayed
        per interval at commit, in order, for managers that define it.

        Returns the number of intervals committed (>= 1).
        """
        dt = self._dt
        manager = self.manager
        queue = self._queue
        scale = self._sim_scale
        max_rps = self._max_load_rps
        sampler = self._demand_sampler
        loads = self._loads

        # Draw and validate interval by interval; everything else about
        # the drawn intervals is derived in bulk below.  The column
        # expressions are the scalar path's, elementwise.
        draw = queue.draw_interval
        epoch_continue = manager.epoch_continue
        loads_l = loads[start : start + horizon].tolist()
        drawn: list[DrawnInterval] = []
        budget = _EPOCH_REQUEST_BUDGET
        for j in range(horizon):
            t0 = (start + j) * dt
            d = draw(t0, t0 + dt, loads_l[j] * max_rps / scale, sampler)
            drawn.append(d)
            budget -= d.n
            if budget <= 0 or j + 1 == horizon:
                break
            if not epoch_continue(min(d.n * scale / dt / max_rps, 1.0)):
                break
        n_epoch = len(drawn)
        index = np.arange(start, start + n_epoch)
        t0s = index * dt
        t1s = t0s + dt
        arrivals_real = np.asarray([d.n for d in drawn]) * scale
        arrival_rps = arrivals_real / dt
        measured = arrival_rps / max_rps
        measured = np.where(1.0 < measured, 1.0, measured)

        stats = queue.run_epoch_drawn(t0s, t1s, drawn)

        # Latency summaries.  reported_latency_ms is elementwise, so one
        # call over the concatenated sojourn times produces the identical
        # floats.  The non-empty intervals then become the rows of one
        # +inf-padded matrix: each mean reduces its row at the exact
        # length, and one row-wise sort yields every quantile's order
        # statistics.
        latencies_ms = self.workload.reported_latency_ms(
            stats.latencies_s, out=stats.latencies_s
        )
        counts = np.asarray(stats.counts)
        tails = np.full(n_epoch, self._idle_latency_ms)
        means = tails.copy()
        busy = np.flatnonzero(counts)
        if busy.size:
            busy_counts = counts[busy]
            rows = np.repeat(np.arange(busy.size), busy_counts)
            cols = np.arange(rows.size) - stats.offsets[busy][rows]
            padded = np.full((busy.size, int(busy_counts.max())), np.inf)
            padded[rows, cols] = latencies_ms
            means[busy] = exact_row_sums(padded, busy_counts) / busy_counts
            padded.sort(axis=1)
            tails[busy] = linear_quantile_sorted(
                padded, busy_counts, self._qos_percentile
            )

        # Power and energy over the whole epoch.  utils rows scatter into
        # copies of the decision's dense base vector exactly as the
        # scalar path does per interval.
        lc_index = state.lc_index_arr
        utils_mat = np.tile(state.utils_base, (n_epoch, 1))
        utils_mat[:, lc_index] = stats.utilizations[:, : lc_index.size]
        n_big = self._n_big
        gate = self._power_gate
        big_w = _epoch_cluster_power(state.big_power, utils_mat[:, :n_big], gate)
        small_w = _epoch_cluster_power(state.small_power, utils_mat[:, n_big:], gate)
        rest_w = self._rest_of_system_w
        power_w = (big_w + small_w) + rest_w
        self._meter.record_many(big_w, small_w, np.full(n_epoch, rest_w), dt)

        # The epoch runs only with the perf-counter bug disarmed, so the
        # counter columns are the decision-state constants.
        tardiness = tails / self._target_ms
        row = table.extend(
            n_epoch,
            decision=decision,
            config_label=state.config_label,
            index=index,
            t_start_s=t0s,
            duration_s=dt,
            offered_load=loads[start : start + n_epoch],
            measured_load=measured,
            arrival_rps=arrival_rps,
            n_requests=arrivals_real.astype(np.int64),
            tail_latency_ms=tails,
            mean_latency_ms=means,
            qos_met=tails <= self._target_ms,
            tardiness=tardiness,
            power_w=power_w,
            energy_j=power_w * dt,
            big_ips=state.big_batch_sum,
            small_ips=state.small_batch_sum,
            counter_garbage=False,
            big_freq_ghz=decision.big_freq_ghz,
            small_freq_ghz=decision.small_freq_ghz,
            migrated_cores=0,
            migration_event=False,
            mean_utilization=np.asarray(stats.mean_utilization),
            backlog_s=np.asarray(stats.backlog_s) / scale,
            shed_work_s=np.asarray(stats.shed_work_s) / scale,
            batch_instructions=state.batch_ips_sum * dt,
        )
        if observe_overridden:
            for j in range(n_epoch):
                manager.observe(table.row(row + j))
        self.epochs_run += 1
        self.epoch_intervals += n_epoch
        return n_epoch

    # ------------------------------------------------------------------
    # decision application (the non-fast path)
    # ------------------------------------------------------------------

    def _apply_decision(
        self, decision: Decision, t0: float
    ) -> tuple[_DecisionState, int, bool]:
        """Apply a decision that differs from the previous interval's."""
        config = decision.config
        self._dvfs.set_frequency("big", decision.big_freq_ghz)
        self._dvfs.set_frequency("small", decision.small_freq_ghz)

        n_free = self.platform.n_cores - config.total_cores
        collocating = decision.run_batch and self.batch_jobs is not None
        placement = self._affinity.apply(
            config, n_batch_jobs=n_free if collocating else 0
        )

        state = self._decision_states.get(decision)
        if state is None:
            state = self._build_decision_state(decision, placement)
            self._decision_states[decision] = state
        self._queue.reconfigure(
            state.speeds, now=t0, migration=placement.migration_event
        )
        self._last_decision = decision
        self._state = state
        return state, placement.migrated_cores, placement.migration_event

    def _build_decision_state(
        self, decision: Decision, placement: Placement
    ) -> _DecisionState:
        """Hoist every decision-derived invariant out of the interval loop."""
        platform = self.platform
        workload = self.workload
        config = decision.config
        core_index = platform.core_index
        n_big = platform.big.n_cores

        # Contention pressure from batch neighbours (placement order, so
        # the sums match the dict-based reference term for term).
        batch_index: list[int] = []
        mem_values: list[float] = []
        for cid in placement.batch_assignment:
            job = placement.batch_assignment[cid]
            batch_index.append(core_index[cid])
            mem_values.append(self.batch_jobs.program_for_job(job).mem_intensity)
        on_big = [i < n_big for i in batch_index]
        pressure = aggregate_pressure_indexed(mem_values, on_big)
        slow_big = self.contention.lc_slowdown(
            CoreKind.BIG, pressure, sensitivity=workload.contention_sensitivity
        )
        slow_small = self.contention.lc_slowdown(
            CoreKind.SMALL, pressure, sensitivity=workload.contention_sensitivity
        )

        state = _DecisionState()
        state.config_label = config.label
        state.big_freq_ghz = float(decision.big_freq_ghz)
        state.small_freq_ghz = float(decision.small_freq_ghz)
        state.big_power = self._power.cluster_coefficients(
            platform.big, decision.big_freq_ghz
        )
        state.small_power = self._power.cluster_coefficients(
            platform.small, decision.small_freq_ghz
        )
        # Computed once per distinct decision; the queue gets the same
        # array on every repeat.
        state.speeds = np.array(
            lc_server_speeds(
                workload,
                platform,
                config,
                big_slowdown=slow_big,
                small_slowdown=slow_small,
            ),
            dtype=float,
        )
        state.n_servers = len(state.speeds)

        # Ground-truth batch IPS per core and the counter sums derived
        # from it; these only change when the decision does.
        true_ips_base = np.zeros(platform.n_cores)
        utils_base = [0.0] * platform.n_cores
        for cid, job in placement.batch_assignment.items():
            program = self.batch_jobs.program_for_job(job)
            cluster = platform.cluster_of(cid)
            freq = (
                decision.big_freq_ghz
                if cluster is platform.big
                else decision.small_freq_ghz
            )
            lc_pressure = (
                workload.mem_intensity if config.uses_cluster(cluster.kind) else 0.0
            )
            factor = self.contention.batch_throughput_factor(
                cluster.kind,
                program.mem_intensity,
                pressure,
                lc_pressure=lc_pressure,
            )
            i = core_index[cid]
            true_ips_base[i] = program.ips(
                cluster.core_type, freq, throughput_factor=factor
            )
            utils_base[i] = 1.0
        state.true_ips_base = true_ips_base
        state.utils_base = utils_base
        state.batch_big_index = [i for i in batch_index if i < n_big]
        state.batch_small_index = [i for i in batch_index if i >= n_big]
        # Started at 0.0 so that an empty sum is a float too; a float
        # start adds exactly like the int one.
        state.big_batch_sum = sum(
            (float(true_ips_base[i]) for i in state.batch_big_index), 0.0
        )
        state.small_batch_sum = sum(
            (float(true_ips_base[i]) for i in state.batch_small_index), 0.0
        )
        state.batch_ips_sum = sum(
            (float(true_ips_base[i]) for i in batch_index), 0.0
        )

        # Latency-critical cores actually used by worker threads, and the
        # factor turning a queue utilization into reported counter IPS.
        used = placement.lc_cores[: workload.n_threads]
        state.lc_used_index = [core_index[cid] for cid in used]
        state.lc_ips_coeff = []
        for cid in used:
            cluster = platform.cluster_of(cid)
            freq = (
                decision.big_freq_ghz
                if cluster is platform.big
                else decision.small_freq_ghz
            )
            state.lc_ips_coeff.append(
                workload.lc_ipc_fraction * self._microbench_ips(cluster, freq)
            )
        state.lc_index_arr = np.asarray(state.lc_used_index, dtype=np.intp)
        state.lc_coeff_arr = np.asarray(state.lc_ips_coeff, dtype=float)
        return state

    def _microbench_ips(self, cluster, freq_ghz: float) -> float:
        """Memoized ``core_type.microbench_ips`` at an operating point."""
        key = (cluster.name, freq_ghz)
        ips = self._microbench_ips_memo.get(key)
        if ips is None:
            ips = cluster.core_type.microbench_ips(freq_ghz)
            self._microbench_ips_memo[key] = ips
        return ips

    def _add_migration_latency(
        self,
        latencies_ms: np.ndarray,
        migrated_cores: int,
        arrival_times_s: np.ndarray,
        t0: float,
        n_servers: int,
    ) -> None:
        """Add the latency of a core migration (wall-clock, not dilated).

        Requests arriving while threads migrate and caches refill wait out
        the remainder of the migration window.  Only threads on *changed*
        cores stall, so the adder hits a request with probability equal to
        the fraction of cores that moved: single-core ladder steps are
        nearly free while a cluster switch stalls the whole service --
        which is why Octopus-Man's big<->small oscillations are so costly
        (paper Sections 2 and 4.2.1).

        Only called when a migration happened, the penalty is positive and
        requests arrived -- exactly the cases in which the reference path
        consumes an rng draw.  The draw still covers every arrival in the
        interval, stalled or not, so the stream is unchanged; the adds
        then touch only the stalled requests of the in-window prefix of
        the (sorted) arrival times, in place.  Skipping the others'
        ``+ 0.0`` is invisible because no latency is ``-0.0``.
        """
        end = t0 + self.config.migration_penalty_s
        fraction = min(migrated_cores / max(n_servers, 1), 1.0)
        draws = self._rng.random(arrival_times_s.size)
        in_window = int(arrival_times_s.searchsorted(end))  # arrivals < end
        stalled = (draws[:in_window] < fraction).nonzero()[0]
        latencies_ms[stalled] += (end - arrival_times_s[stalled]) * 1e3


def _epoch_cluster_power(
    coeffs: ClusterPowerCoefficients,
    utils_mat: np.ndarray,
    power_gate_idle: bool,
) -> np.ndarray:
    """Cluster power for a whole epoch of per-core utilization rows.

    Vectorizes :meth:`ClusterPowerCoefficients.cluster_power_w` across
    the epoch axis while keeping each row's accumulation identical to
    the scalar method: the total starts at the static term and adds one
    core's dynamic term at a time, in core order.  A power-gated idle
    core *skips* its add on the scalar path; here it contributes ``+0.0``
    instead, which is bitwise invisible because the running total is
    never ``-0.0`` (it starts at a non-negative static term and only
    grows).
    """
    h, n_cores = utils_mat.shape
    if n_cores and (
        float(utils_mat.min()) < 0.0 or float(utils_mat.max()) > 1.0
    ):
        raise ValueError("utilization must be within [0, 1]")
    total = np.full(h, coeffs.static_w)
    idle = coeffs.idle_fraction
    busy = 1.0 - idle
    dynamic = coeffs.dynamic_w
    for c in range(n_cores):
        col = utils_mat[:, c]
        term = dynamic * (idle + busy * col)
        if power_gate_idle:
            term = np.where(col == 0.0, 0.0, term)
        total += term
    return total


def run_experiment(
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
    """One-call wrapper: build an :class:`IntervalSimulator` and run it."""
    simulator = IntervalSimulator(
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
