"""Byte-identity and gating of the decision-epoch fast path.

The epoch-batched interval loop (``EngineConfig.epoch_fast_path``)
claims *bit-identical* output to the scalar loop of the same engine --
same rng draw order, same summation order, same floats in every
observation column -- so ``KERNEL_VERSION`` stayed unchanged and cached
scenario results remain valid.  These tests enforce the claim three
ways:

* epoch-vs-scalar differential runs over scenarios covering every
  epoch-path branch (static and table-driven managers, empty intervals,
  collocation, trace shapes that split epochs at bucket boundaries),
  asserting every observation column equal down to its bytes *and* that
  the epoch path actually engaged;
* gating tests pinning the scalar path wherever byte-identity cannot be
  batched (armed perf counters) or batching cannot pay (high arrival
  rates), plus managers that never opted into the epoch contract;
* unit-level equivalence of the batched building blocks (bulk
  ``ObservationTable.extend``, ``EnergyMeter.record_many``, the dense
  fancy-index scatter) against their one-at-a-time counterparts, on
  randomized inputs, including a hypothesis fuzz of epoch boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.power import EnergyMeter, PowerBreakdown
from repro.hardware.soc import KernelConfig
from repro.hardware.topology import Configuration
from repro.loadgen.diurnal import DiurnalTrace
from repro.loadgen.traces import ConstantTrace, RampTrace, SampledTrace, StepTrace
from repro.policies.octopusman import OctopusMan
from repro.policies.static import StaticPolicy, static_all_big, static_all_small
from repro.policies.table_driven import TableDrivenPolicy
from repro.sim.engine import (
    _EPOCH_MIN_INTERVALS,
    EngineConfig,
    IntervalSimulator,
)
from repro.sim.latency import linear_quantile, linear_quantile_sorted
from repro.sim.queueing import DispatchQueue, exact_row_sums
from repro.sim.records import (
    POOLED_FIELDS,
    SCALAR_FIELDS,
    IntervalObservation,
    ObservationTable,
)
from repro.workloads.memcached import memcached
from repro.workloads.spec import spec_job_set
from repro.workloads.websearch import websearch

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the image bakes hypothesis in
    HAVE_HYPOTHESIS = False


def small_table() -> TableDrivenPolicy:
    return TableDrivenPolicy(
        [
            (0.1, Configuration(0, 2, None, 0.65)),
            (0.25, Configuration(0, 4, None, 0.65)),
            (1.0, Configuration(2, 0, 1.15, None)),
        ]
    )


def run_columns(platform, make_policy, trace, *, epoch, workload=None,
                collocate=False, kernel=None, seed=7, n_intervals=None,
                engine_kw=None):
    """Run once and return (columns keyed by field, simulator)."""
    wl = workload or memcached()
    sim = IntervalSimulator(
        platform,
        wl,
        trace,
        make_policy(),
        batch_jobs=spec_job_set("calculix") if collocate else None,
        kernel=kernel,
        engine_config=EngineConfig(epoch_fast_path=epoch, **(engine_kw or {})),
        seed=seed,
    )
    result = sim.run(n_intervals)
    table = result._table
    cols = {name: table.column(name) for name in SCALAR_FIELDS}
    for name in POOLED_FIELDS:
        cols[name] = np.asarray([repr(v) for v in table.column(name)])
    return cols, sim


def assert_columns_identical(scenario, cols_scalar, cols_epoch):
    for name, scalar_col in cols_scalar.items():
        epoch_col = cols_epoch[name]
        if scalar_col.tobytes() != epoch_col.tobytes():
            bad = np.flatnonzero(~(scalar_col == epoch_col))[:5]
            raise AssertionError(
                f"{scenario}: column {name} differs at rows {bad.tolist()}: "
                f"scalar={scalar_col[bad]!r} epoch={epoch_col[bad]!r}"
            )


def assert_differential(platform, make_policy, trace, *, min_epochs=1, **kw):
    cols_scalar, sim_scalar = run_columns(
        platform, make_policy, trace, epoch=False, **kw
    )
    cols_epoch, sim_epoch = run_columns(
        platform, make_policy, trace, epoch=True, **kw
    )
    assert sim_scalar.epochs_run == 0
    assert sim_epoch.epochs_run >= min_epochs, (
        f"epoch path never engaged ({sim_epoch.epochs_run} epochs)"
    )
    assert_columns_identical(trace.__class__.__name__, cols_scalar, cols_epoch)
    return sim_epoch


class TestEpochDifferential:
    """Epoch-vs-scalar byte-identity with the epoch path engaged."""

    def test_static_constant(self, platform):
        sim = assert_differential(
            platform, lambda: static_all_big(platform), ConstantTrace(0.3, 150.0)
        )
        # Heavy-rate point (expected ~432 requests/interval): one scalar
        # interval at the decision boundary, batched epochs for the bulk,
        # and at most one sub-minimum tail left to the scalar loop.
        assert sim.epoch_intervals >= 150 - 1 - _EPOCH_MIN_INTERVALS

    def test_static_small_cluster(self, platform):
        assert_differential(
            platform, lambda: static_all_small(platform), ConstantTrace(0.2, 90.0)
        )

    def test_zero_load_empty_intervals(self, platform):
        assert_differential(
            platform, lambda: static_all_big(platform), ConstantTrace(0.0, 80.0)
        )

    def test_table_driven_step(self, platform):
        assert_differential(
            platform,
            small_table,
            StepTrace([(40.0, 0.05), (40.0, 0.3), (40.0, 0.15)]),
            min_epochs=2,
        )

    def test_table_driven_diurnal(self, platform):
        # A deep trough keeps the quiet stretch in the light-rate regime
        # where runs of a couple of stable intervals already batch.
        assert_differential(
            platform,
            small_table,
            DiurnalTrace(duration_s=240.0, min_load=0.005, max_load=0.3),
            min_epochs=2,
        )

    def test_table_driven_ramp(self, platform):
        assert_differential(
            platform,
            small_table,
            RampTrace(start_level=0.02, end_level=0.34, ramp_s=80.0, lead_s=20.0),
        )

    def test_collocated_batch(self, platform):
        assert_differential(
            platform,
            lambda: static_all_big(platform, collocate_batch=True),
            ConstantTrace(0.3, 100.0),
            collocate=True,
        )

    def test_websearch(self, platform):
        assert_differential(
            platform,
            small_table,
            DiurnalTrace(duration_s=150.0),
            workload=websearch(),
        )

    def test_epoch_block_boundary(self, platform):
        # Longer than _EPOCH_BLOCK: the run must split into several
        # epochs and still match byte for byte.
        sim = assert_differential(
            platform,
            lambda: static_all_big(platform),
            ConstantTrace(0.02, 600.0),
            min_epochs=2,
        )
        assert sim.epoch_intervals == 599

    @pytest.mark.parametrize(
        "config,load",
        [
            (Configuration(0, 1, None, 0.65), 0.2),
            (Configuration(0, 2, None, 0.65), 0.35),
        ],
        ids=["one-server", "two-servers"],
    )
    def test_backlog_shedding(self, platform, monkeypatch, config, load):
        # A tight backlog bound near saturation: the shed clamp fires
        # inside epochs, and the carried free times and the shed and
        # backlog columns must still match the scalar loop.
        epoch_sheds = []
        run_epoch_drawn = DispatchQueue.run_epoch_drawn

        def recording(queue, *args):
            stats = run_epoch_drawn(queue, *args)
            epoch_sheds.append(float(np.max(stats.shed_work_s)))
            return stats

        monkeypatch.setattr(DispatchQueue, "run_epoch_drawn", recording)
        assert_differential(
            platform,
            lambda: StaticPolicy(config),
            ConstantTrace(load, 100.0),
            engine_kw={"max_backlog_s": 0.01},
        )
        assert max(epoch_sheds) > 0


class TestEpochGating:
    """Scenarios that must keep (or return to) the scalar path."""

    def run_epoch(self, platform, make_policy, trace, **kw):
        _, sim = run_columns(platform, make_policy, trace, epoch=True, **kw)
        return sim

    def test_cpuidle_counters_pin_scalar(self, platform):
        # Armed perf counters consume rng draws per interval, which only
        # the scalar loop replays -- and the observations still match.
        cols_scalar, sim_scalar = run_columns(
            platform, lambda: static_all_big(platform), ConstantTrace(0.3, 60.0),
            epoch=False, kernel=KernelConfig(cpuidle_enabled=True),
        )
        cols_epoch, sim_epoch = run_columns(
            platform, lambda: static_all_big(platform), ConstantTrace(0.3, 60.0),
            epoch=True, kernel=KernelConfig(cpuidle_enabled=True),
        )
        assert sim_epoch.epochs_run == 0
        assert_columns_identical("cpuidle", cols_scalar, cols_epoch)

    def test_high_load_gated_off(self, platform):
        # Above the amortization cutoff the batched kernel cannot beat
        # the L1-resident scalar kernel; the engine must not try.
        sim = self.run_epoch(
            platform, lambda: static_all_big(platform), ConstantTrace(0.9, 60.0)
        )
        assert sim.epochs_run == 0

    def test_feedback_policy_stays_scalar(self, platform):
        sim = self.run_epoch(
            platform, OctopusMan, StepTrace([(40.0, 0.1), (40.0, 0.3)])
        )
        assert sim.epochs_run == 0

    def test_flapping_subclass_stays_scalar(self, platform):
        # A subclass with an impure decide() inherits StaticPolicy's
        # epoch contract, but never repeats a decision -- the observed-
        # repeat gate keeps it off the batched path.
        class Flapper(StaticPolicy):
            def __init__(self):
                super().__init__(Configuration(2, 0, 1.15, None), name="flapper")
                self._flip = False

            def decide(self):
                from repro.policies.base import resolve_decision

                self._flip = not self._flip
                config = (
                    Configuration(2, 0, 1.15, None)
                    if self._flip
                    else Configuration(0, 4, None, 0.65)
                )
                return resolve_decision(
                    self.ctx.platform, config, collocate_batch=False
                )

        cols_scalar, _ = run_columns(
            platform, Flapper, ConstantTrace(0.2, 50.0), epoch=False
        )
        cols_epoch, sim = run_columns(
            platform, Flapper, ConstantTrace(0.2, 50.0), epoch=True
        )
        assert sim.epochs_run == 0
        assert_columns_identical("flapper", cols_scalar, cols_epoch)

    def test_epoch_fast_path_off_by_config(self, platform):
        sim = self.run_epoch(
            platform, lambda: static_all_big(platform), ConstantTrace(0.3, 60.0)
        )
        assert sim.epochs_run > 0
        _, sim_off = run_columns(
            platform, lambda: static_all_big(platform), ConstantTrace(0.3, 60.0),
            epoch=False,
        )
        assert sim_off.epochs_run == 0


class TestExtendMatchesAppend:
    """Bulk extend() writes the identical rows append() would."""

    def rows(self, rng, n):
        rows = []
        for i in range(n):
            row = {}
            for field in SCALAR_FIELDS:
                if field == "index":
                    row[field] = i
                elif field in ("n_requests", "migrated_cores"):
                    row[field] = int(rng.integers(0, 50))
                elif field in ("qos_met", "counter_garbage", "migration_event"):
                    row[field] = bool(rng.integers(0, 2))
                else:
                    row[field] = float(rng.uniform(0.0, 100.0))
            rows.append(row)
        return rows

    def test_extend_bit_identical(self):
        rng = np.random.default_rng(11)
        rows = self.rows(rng, 23)
        one = ObservationTable(23)
        for row in rows:
            one.append(
                IntervalObservation(decision="decision-a", config_label="cfg", **row)
            )
        bulk = ObservationTable(23)
        columns = {
            field: np.asarray([row[field] for row in rows])
            for field in SCALAR_FIELDS
        }
        start = bulk.extend(
            23, decision="decision-a", config_label="cfg", **columns
        )
        assert start == 0
        for field in SCALAR_FIELDS:
            assert one.column(field).tobytes() == bulk.column(field).tobytes()
        for field in POOLED_FIELDS:
            assert list(one.column(field)) == list(bulk.column(field))

    def test_extend_broadcasts_scalars(self):
        rng = np.random.default_rng(3)
        rows = self.rows(rng, 7)
        for row in rows:
            row["duration_s"] = 1.0
            row["migration_event"] = False
        one = ObservationTable(7)
        for row in rows:
            one.append(IntervalObservation(decision="d", config_label="c", **row))
        bulk = ObservationTable(7)
        columns = {
            field: np.asarray([row[field] for row in rows])
            for field in SCALAR_FIELDS
        }
        columns["duration_s"] = 1.0
        columns["migration_event"] = False
        bulk.extend(7, decision="d", config_label="c", **columns)
        for field in SCALAR_FIELDS:
            assert one.column(field).tobytes() == bulk.column(field).tobytes()

    def test_extend_rejects_missing_fields(self):
        table = ObservationTable(4)
        with pytest.raises(TypeError):
            table.extend(4, decision="d", config_label="c", index=np.arange(4))


class TestBatchedBuildingBlocks:
    """Unit equivalence of the epoch path's vectorized pieces."""

    def test_record_many_bit_identical(self):
        rng = np.random.default_rng(5)
        big = rng.uniform(0.5, 9.0, 64)
        small = rng.uniform(0.1, 3.0, 64)
        rest = rng.uniform(0.2, 1.0, 64)
        one = EnergyMeter()
        for b, s, r in zip(big, small, rest):
            one.record(PowerBreakdown(float(b), float(s), float(r)), 1.0)
        many = EnergyMeter()
        many.record_many(big, small, rest, 1.0)
        assert one.read() == many.read()
        assert one.elapsed_s == many.elapsed_s

    def test_record_many_rejects_negative_duration(self):
        meter = EnergyMeter()
        with pytest.raises(ValueError):
            meter.record_many(np.ones(3), np.ones(3), np.ones(3), -1.0)

    def test_fancy_scatter_matches_element_loop(self):
        # The dense true-IPS/utilization scatter in the interval loop:
        # with unique targets, one fancy-indexed assignment writes the
        # identical floats the old per-element loop did.
        rng = np.random.default_rng(9)
        for _ in range(25):
            n_cores = int(rng.integers(2, 9))
            n_used = int(rng.integers(1, n_cores + 1))
            lc_index = rng.permutation(n_cores)[:n_used].astype(np.intp)
            coeff = rng.uniform(1e8, 1e10, n_used)
            utils = rng.uniform(0.0, 1.0, n_used)
            base = rng.uniform(0.0, 1e9, n_cores)

            looped = base.copy()
            for j, core in enumerate(lc_index):
                looped[core] = coeff[j] * utils[j]
            scattered = base.copy()
            scattered[lc_index] = coeff * utils
            assert looped.tobytes() == scattered.tobytes()

    def test_exact_row_sums_match_exact_length_reduce(self):
        # Rows of eight or more entries reduce pairwise, and the tree
        # depends on the length: each row must equal the 1-D reduce of
        # its own entries, never the padded row's sum.
        rng = np.random.default_rng(11)
        for _ in range(20):
            counts = rng.integers(0, 300, size=int(rng.integers(1, 40)))
            padded = np.zeros((counts.size, int(counts.max()) + 3))
            expected = np.zeros(counts.size)
            for i, c in enumerate(counts):
                padded[i, :c] = rng.lognormal(0.0, 2.0, c)
                if c:
                    expected[i] = np.add.reduce(padded[i, :c].copy())
            sums = exact_row_sums(padded, counts)
            assert sums.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("max_backlog_s", [None, 0.05])
    @pytest.mark.parametrize("k", [8, 12])
    def test_epoch_kernel_matches_per_interval_on_wide_queues(self, k, max_backlog_s):
        # The epoch kernel's bookkeeping is run_drawn's Python-float walk,
        # so it serves any server count, not only the handful of cores a
        # modelled board gives one workload.
        def sampler(rng, n):
            return rng.exponential(0.002, size=n)

        speeds = [1.0 + 0.25 * (j % 3) for j in range(k)]
        queues = []
        for _ in range(2):
            queue = DispatchQueue(
                rng=np.random.default_rng(k), max_backlog_s=max_backlog_s
            )
            queue.reconfigure(speeds, now=0.0)
            queue.run_interval(0.0, 0.25, 3000.0 * k, sampler)  # carried backlog
            queues.append(queue)
        epoch_queue, interval_queue = queues
        rates = [0.0, 50.0 * k, 4000.0 * k, 300.0 * k, 0.0, 6000.0 * k, 10.0]
        t0s = [0.25 * (i + 1) for i in range(len(rates))]
        t1s = [t0 + 0.25 for t0 in t0s]
        drawn = [
            epoch_queue.draw_interval(t0, t1, rate, sampler)
            for t0, t1, rate in zip(t0s, t1s, rates)
        ]
        stats = [interval_queue.run_drawn(*args) for args in zip(t0s, t1s, drawn)]
        epoch = epoch_queue.run_epoch_drawn(t0s, t1s, drawn)

        latencies = np.concatenate([s.latencies_s for s in stats])
        assert epoch.latencies_s.tobytes() == latencies.tobytes()
        utils = np.array([s.utilizations for s in stats])
        assert epoch.utilizations.tobytes() == utils.tobytes()
        means = np.array([s.mean_utilization for s in stats])
        assert epoch.mean_utilization.tobytes() == means.tobytes()
        shed = np.array([s.shed_work_s for s in stats])
        assert epoch.shed_work_s.tobytes() == shed.tobytes()
        backlog = np.array([s.backlog_s for s in stats])
        assert epoch.backlog_s.tobytes() == backlog.tobytes()
        assert epoch_queue._free.tobytes() == interval_queue._free.tobytes()
        assert (shed.sum() > 0.0) == (max_backlog_s is not None)

    def test_linear_quantile_sorted_matches_per_row(self):
        rng = np.random.default_rng(12)
        for q in (0.5, 0.9, 0.95, 0.99):
            counts = np.concatenate([[1, 2, 3, 21], rng.integers(1, 120, 60)])
            rows = [rng.lognormal(0.0, 1.0, c) for c in counts]
            padded = np.full((counts.size, int(counts.max())), np.inf)
            for i, row in enumerate(rows):
                padded[i, : row.size] = row
            padded.sort(axis=1)
            expected = np.array([linear_quantile(row, q) for row in rows])
            got = linear_quantile_sorted(padded, counts, q)
            assert got.tobytes() == expected.tobytes()


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
class TestEpochBoundaryFuzz:
    """Property fuzz: arbitrary traces/tables/seeds stay byte-identical."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        levels=st.lists(
            st.floats(0.0, 0.4), min_size=3, max_size=12
        ),
        thresholds=st.tuples(
            st.floats(0.02, 0.15),
            st.floats(0.16, 0.45),
        ),
        seed=st.integers(0, 2**16),
        interval_count=st.integers(8, 48),
    )
    def test_table_driven_fuzz(self, platform, levels, thresholds, seed,
                               interval_count):
        lo, hi = thresholds
        policy_table = [
            (lo, Configuration(0, 2, None, 0.65)),
            (hi, Configuration(0, 4, None, 0.65)),
            (1.0, Configuration(2, 0, 1.15, None)),
        ]
        trace = SampledTrace([float(lv) for lv in levels], interval_s=8.0)
        n = min(interval_count, trace.n_intervals())
        cols_scalar, _ = run_columns(
            platform, lambda: TableDrivenPolicy(policy_table), trace,
            epoch=False, seed=seed, n_intervals=n,
        )
        cols_epoch, _ = run_columns(
            platform, lambda: TableDrivenPolicy(policy_table), trace,
            epoch=True, seed=seed, n_intervals=n,
        )
        assert_columns_identical("fuzz", cols_scalar, cols_epoch)
