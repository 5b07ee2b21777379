"""Byte-identity of the dense engine against the reference implementation.

The dense/core-indexed interval engine (PR 3) claims *bit-identical*
output to the seed implementation -- same rng draw order and counts, same
floats in every observation -- which is why ``KERNEL_VERSION`` was not
bumped and cached scenario results stay valid.  These tests enforce the
claim three ways:

* engine-vs-reference runs over scenarios covering every hot-path branch
  (collocation, migrations, CPUidle/Juno-bug, bursty and Poisson
  arrivals, single- and many-server configurations, zero load);
* golden fingerprints of registry scenarios pinned from the pre-refactor
  engine (commit b2d065f) -- a regression here means cached experiment
  results are silently invalid;
* unit-level equivalence of each dict-path API against its array-native
  fast path on randomized inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from engine_reference import run_reference_experiment
from oracles import aggregate_pressure
from repro.hardware.counters import PerfCounters
from repro.hardware.power import PowerModel
from repro.hardware.soc import KernelConfig
from repro.loadgen.traces import ConstantTrace, StepTrace
from repro.policies.octopusman import OctopusMan
from repro.policies.static import StaticPolicy, static_all_big, static_all_small
from repro.hardware.topology import Configuration
from repro.scenarios import DEFAULT_REGISTRY
from repro.sim.contention import aggregate_pressure_indexed
from repro.sim.engine import run_experiment
from repro.sim.latency import linear_quantile
from repro.sim.queueing import DispatchQueue
from repro.workloads.memcached import memcached
from repro.workloads.spec import spec_job_set
from repro.workloads.websearch import websearch

OBSERVATION_FIELDS = (
    "index", "t_start_s", "duration_s", "offered_load", "measured_load",
    "arrival_rps", "n_requests", "tail_latency_ms", "mean_latency_ms",
    "qos_met", "tardiness", "power_w", "energy_j", "big_ips", "small_ips",
    "counter_garbage", "config_label", "big_freq_ghz", "small_freq_ghz",
    "migrated_cores", "migration_event", "mean_utilization", "backlog_s",
    "shed_work_s", "batch_instructions",
)


def result_fingerprint(result) -> str:
    """Order-sensitive hash over every observation field (exact reprs)."""
    h = hashlib.sha256()
    for o in result.observations:
        h.update(
            repr(tuple(getattr(o, f) for f in OBSERVATION_FIELDS)).encode()
        )
    return h.hexdigest()


def assert_identical(new, ref):
    """Every observation field bit-identical (via exact repr) in order."""
    assert len(new) == len(ref)
    for o_new, o_ref in zip(new.observations, ref.observations):
        for field in OBSERVATION_FIELDS:
            v_new, v_ref = getattr(o_new, field), getattr(o_ref, field)
            assert repr(v_new) == repr(v_ref), (
                f"interval {o_new.index} field {field}: "
                f"{v_new!r} != {v_ref!r}"
            )


class Flapper(StaticPolicy):
    """Alternates between cluster configs: exercises migrations + rng adder."""

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
        return resolve_decision(self.ctx.platform, config, collocate_batch=False)


class TestEngineMatchesReference:
    """End-to-end: optimized engine == reference engine, bit for bit."""

    def _both(self, platform, workload, trace, make_manager, **kwargs):
        new = run_experiment(platform, workload, trace, make_manager(), **kwargs)
        ref = run_reference_experiment(
            platform, workload, trace, make_manager(), **kwargs
        )
        assert_identical(new, ref)

    def test_static_big_websearch(self, platform):
        self._both(
            platform, websearch(), ConstantTrace(0.5, 25),
            lambda: static_all_big(platform), seed=42,
        )

    def test_static_small_single_server_regime(self, platform):
        """1S config: the queue's single-server path."""
        self._both(
            platform, memcached(), ConstantTrace(0.3, 25),
            lambda: StaticPolicy(Configuration(0, 1, None, 0.65)), seed=5,
        )

    def test_many_servers_with_collocation(self, platform):
        wl = memcached().with_overrides(n_threads=6)
        self._both(
            platform, wl, ConstantTrace(0.8, 25),
            lambda: StaticPolicy(
                Configuration(2, 4, 1.15, 0.65), collocate_batch=True
            ),
            batch_jobs=spec_job_set("lbm"), seed=7,
        )

    def test_migration_heavy_manager_draws_preserved(self, platform):
        """Flapping managers hit the migration latency adder every other
        interval; its rng draw must stay in the stream."""
        self._both(
            platform, memcached(), ConstantTrace(0.55, 30),
            Flapper, seed=3,
        )

    def test_octopus_man_adaptive(self, platform):
        self._both(
            platform, memcached(), StepTrace([(15, 0.9), (25, 0.2)]),
            OctopusMan, seed=11,
        )

    def test_cpuidle_enabled_juno_bug_draws(self, platform):
        """With CPUidle on, garbage counter draws must match per-core."""
        self._both(
            platform, websearch(), ConstantTrace(0.01, 20),
            lambda: static_all_big(platform, collocate_batch=True),
            batch_jobs=spec_job_set("calculix"),
            kernel=KernelConfig(cpuidle_enabled=True), seed=3,
        )

    def test_zero_load_empty_intervals(self, platform):
        self._both(
            platform, memcached(), ConstantTrace(0.0, 10),
            lambda: static_all_small(platform), seed=1,
        )

    def test_poisson_arrivals_burstiness_one(self, platform):
        wl = memcached().with_overrides(burstiness=1.0)
        self._both(
            platform, wl, ConstantTrace(0.6, 25),
            lambda: static_all_big(platform), seed=9,
        )


class TestEpochAgainstReference:
    """Three-way check: reference == scalar loop == decision-epoch path.

    ``TestEngineMatchesReference`` runs the default engine (epoch fast
    path enabled) against the reference; these scenarios additionally
    force the scalar loop and pin all three fingerprints equal on runs
    where the epoch path provably engages (low-load decision-stable
    segments long enough to batch)."""

    def _three_way(self, platform, workload, trace, make_manager, **kwargs):
        from repro.sim.engine import EngineConfig, IntervalSimulator

        ref = run_reference_experiment(
            platform, workload, trace, make_manager(), **kwargs
        )
        scalar = run_experiment(
            platform, workload, trace, make_manager(),
            engine_config=EngineConfig(epoch_fast_path=False), **kwargs,
        )
        sim = IntervalSimulator(
            platform, workload, trace, make_manager(),
            engine_config=EngineConfig(epoch_fast_path=True),
            **{k: v for k, v in kwargs.items() if k != "seed"},
            seed=kwargs.get("seed", 0),
        )
        epoch = sim.run()
        assert sim.epochs_run > 0, "scenario must exercise the epoch path"
        fp_ref = result_fingerprint(ref)
        assert result_fingerprint(scalar) == fp_ref
        assert result_fingerprint(epoch) == fp_ref

    def test_static_big_low_load(self, platform):
        self._three_way(
            platform, memcached(), ConstantTrace(0.25, 60),
            lambda: static_all_big(platform), seed=13,
        )

    def test_static_small_zero_load(self, platform):
        self._three_way(
            platform, memcached(), ConstantTrace(0.0, 40),
            lambda: static_all_small(platform), seed=2,
        )

    def test_table_driven_step_epochs(self, platform):
        from repro.policies.table_driven import TableDrivenPolicy

        table = [
            (0.1, Configuration(0, 2, None, 0.65)),
            (0.3, Configuration(0, 4, None, 0.65)),
            (1.0, Configuration(2, 0, 1.15, None)),
        ]
        self._three_way(
            platform, memcached(), StepTrace([(30, 0.05), (30, 0.2)]),
            lambda: TableDrivenPolicy(table), seed=17,
        )


class TestGoldenFingerprints:
    """Pinned golden result fingerprints: byte-identity with the seed
    across refactors, not merely self-consistency.

    Re-pinned exactly once, at the columnar storage-format bump
    (``SCHEMA_VERSION`` 1 -> 2): every numeric *value* was verified
    bit-identical against the pre-columnar engine (commit cbdd2d4), but
    the repr-based hash also sees scalar container types, and typed
    columns normalize those -- fields that happened to carry a Python
    ``int`` zero (e.g. ``big_ips`` from ``sum(())`` in batch-free
    intervals) or an ``np.float64`` now materialize uniformly as Python
    floats.  The pre-bump hashes are kept in ``GOLDEN_V1`` to document
    the re-pin."""

    GOLDEN = {
        "fig01-hipster-in": (
            "7eb29c68308c11bc27b86ef0e5c9e20bf3ef8b9c45c14eaad873e629c321681b"
        ),
        "diurnal-octopus-man": (
            "f3d5df4a8d9447773108f70d5b5df7a4c39b312b458ef67bb858c2ea4d3b5baa"
        ),
        "collocation-websearch-lbm": (
            "c4fb3e264f118721a6af1b098185dab217996a99ea27a42600bedadbe8f35dc9"
        ),
        "steady-cpuidle": (
            "989a202ef2bd9f40213f1904404e851d566df9f626f7a9b41cf5b5d2374d3152"
        ),
    }

    #: Dataclass-era pins (storage format 1, commit b2d065f) -- retired
    #: at the format bump, retained as documentation of the migration.
    GOLDEN_V1 = {
        "fig01-hipster-in": (
            "c0da99d853de1cf584002502dfdfb64d515416496b5fe0357ee1ef48ecb5c427"
        ),
        "diurnal-octopus-man": (
            "3bde815fa739484deb2b39068854741440a135f6175649623068cb28e8409ca5"
        ),
        "collocation-websearch-lbm": (
            "5a9d6ee6d4b6f73622ee913ea9f7812e282d0566756150ac188a4936c3c71e19"
        ),
        "steady-cpuidle": (
            "c58b6c57841c0c6496b8f417673527fd68a6bd9fbedd43d347bcf8abb386b4a3"
        ),
    }

    def _spec(self, name):
        if name == "fig01-hipster-in":
            return DEFAULT_REGISTRY.build(
                "diurnal-policy", workload="memcached", manager="hipster-in",
                quick=True,
            )
        if name == "diurnal-octopus-man":
            return DEFAULT_REGISTRY.build(
                "diurnal-policy", workload="memcached", manager="octopus-man",
                quick=True,
            )
        if name == "collocation-websearch-lbm":
            return DEFAULT_REGISTRY.build(
                "collocation", workload="websearch", program="lbm",
                manager="hipster-co", quick=True,
            )
        return DEFAULT_REGISTRY.build(
            "steady-config", workload="memcached", config_label="2B2S-0.90",
            load=0.7, duration_s=60.0,
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden(self, name):
        outcome = self._spec(name).run()
        assert result_fingerprint(outcome.result) == self.GOLDEN[name]


class TestDensePathUnits:
    """Array-native fast paths agree with the dict APIs on random inputs."""

    def test_counters_clean_when_bug_disarmed(self, platform):
        counters = PerfCounters(
            platform, KernelConfig(cpuidle_enabled=False), juno_perf_bug=True
        )
        assert not counters.bug_armed
        vec = np.zeros(platform.n_cores)
        sample, garbage = counters.read_array(vec, np.random.default_rng(0))
        assert not garbage
        assert np.array_equal(sample, vec)

    @pytest.mark.parametrize("cpuidle", [False, True])
    def test_power_breakdown_matches_breakdown_array(self, platform, cpuidle):
        rng = np.random.default_rng(4)
        model = PowerModel(platform, KernelConfig(cpuidle_enabled=cpuidle))
        for _ in range(50):
            utils = {
                cid: float(rng.random())
                for cid in platform.core_ids
                if rng.random() < 0.8
            }
            dense = np.array(
                [float(utils.get(cid, 0.0)) for cid in platform.core_ids]
            )
            a = model.breakdown(1.15, 0.65, utils)
            b = model.breakdown_array(1.15, 0.65, dense)
            assert (a.big_w, a.small_w, a.rest_w) == (b.big_w, b.small_w, b.rest_w)

    def test_power_array_rejects_bad_utilization(self, platform):
        model = PowerModel(platform)
        bad = np.zeros(platform.n_cores)
        bad[0] = 1.5
        with pytest.raises(ValueError, match="within"):
            model.breakdown_array(1.15, 0.65, bad)

    def test_aggregate_pressure_indexed_matches_dict(self, platform):
        rng = np.random.default_rng(8)
        for _ in range(30):
            cores = [
                cid for cid in platform.core_ids if rng.random() < 0.6
            ]
            mem = {cid: float(rng.random()) for cid in cores}
            big_ids = set(platform.big.core_ids)
            a = aggregate_pressure(mem, platform.big.core_ids)
            b = aggregate_pressure_indexed(
                [mem[cid] for cid in cores],
                [cid in big_ids for cid in cores],
            )
            assert (a.big, a.small) == (b.big, b.small)

    def test_dispatch_matches_rng_choice(self):
        """The threshold dispatch replays ``rng.choice`` bit for bit."""
        for n_servers in (1, 2, 3, 6):
            for seed in range(5):
                queue = DispatchQueue(
                    rng=np.random.default_rng(seed), balance_exponent=0.55
                )
                queue.reconfigure(
                    [1.0 + 0.3 * k for k in range(n_servers)], now=0.0
                )
                assigned = queue._dispatch(500)
                replay = np.random.default_rng(seed)
                expected = replay.choice(n_servers, size=500, p=queue._weights)
                assert np.array_equal(assigned, expected)

    def test_linear_quantile_matches_np_quantile(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 4000))
            values = rng.lognormal(0.0, 1.5, size=n)
            q = float(rng.uniform(0.01, 0.99))
            assert linear_quantile(values, q) == float(np.quantile(values, q))

    @pytest.mark.parametrize("q", [0.9, 0.95])
    @pytest.mark.parametrize("n", [1, 2, 20, 21])
    def test_linear_quantile_at_exact_order_statistics(self, n, q):
        """n = 1, 2, 20 and 21 put ``q * (n - 1)`` on an integer (gamma
        == 0: one order statistic, no interpolation) or just off one."""
        rng = np.random.default_rng(n)
        values = rng.lognormal(0.0, 1.0, size=n)
        assert linear_quantile(values, q) == float(np.quantile(values, q))
        assert linear_quantile(values.copy(), q, destructive=True) == float(
            np.quantile(values, q)
        )

    def test_linear_quantile_on_structured_latencies(self):
        """Ties everywhere: bursty arrivals (requests of one burst share
        an arrival time, so many latencies repeat), all-equal arrays and
        few distinct values."""
        rng = np.random.default_rng(21)
        cases = [np.full(n, 3.25) for n in (1, 2, 7, 20, 21, 500)]
        for _ in range(60):
            queue = DispatchQueue(
                rng=rng, balance_exponent=0.55, burstiness=float(rng.uniform(2, 8))
            )
            queue.reconfigure(rng.uniform(0.3, 1.0, size=int(rng.integers(1, 5))), 0.0)
            drawn = queue.draw_interval(
                0.0, 1.0, float(rng.uniform(5, 900)),
                lambda r, n: np.full(n, 1e-3),  # equal demands: tied sojourns
            )
            cases.append(queue.run_drawn(0.0, 1.0, drawn).latencies_s * 1e3)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            cases.append(rng.integers(0, 4, size=n).astype(float))
        for values in cases:
            if not values.size:
                continue
            for q in (0.5, 0.9, 0.95, 0.99):
                assert linear_quantile(values, q) == float(np.quantile(values, q))

    def test_linear_quantile_destructive_leaves_value_intact(self):
        values = np.random.default_rng(1).random(101)
        expected = float(np.quantile(values, 0.9))
        assert linear_quantile(values, 0.9, destructive=True) == expected

    def test_platform_core_index_is_dense_and_stable(self, platform):
        assert list(platform.core_index.values()) == list(
            range(platform.n_cores)
        )
        assert [
            platform.core_ids[i] for i in platform.big_core_index
        ] == list(platform.big.core_ids)
        assert [
            platform.core_ids[i] for i in platform.small_core_index
        ] == list(platform.small.core_ids)
