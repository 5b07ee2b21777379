"""Integration tests for the interval co-simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.soc import KernelConfig
from repro.hardware.topology import Configuration
from repro.loadgen.traces import ConstantTrace, StepTrace
from repro.policies.static import StaticPolicy, static_all_big, static_all_small
from repro.sim.engine import EngineConfig, IntervalSimulator, run_experiment
from repro.workloads.memcached import memcached
from repro.workloads.spec import spec_job_set
from repro.workloads.websearch import websearch


class TestEngineBasics:
    def test_run_produces_one_observation_per_interval(self, platform):
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.5, 20), static_all_big(platform)
        )
        assert len(result) == 20
        assert [o.index for o in result] == list(range(20))

    def test_deterministic_for_seed(self, platform):
        runs = [
            run_experiment(
                platform, websearch(), ConstantTrace(0.5, 15),
                static_all_big(platform), seed=42,
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].tails_ms, runs[1].tails_ms)
        assert np.array_equal(runs[0].powers_w, runs[1].powers_w)

    def test_different_seeds_differ(self, platform):
        a = run_experiment(
            platform, websearch(), ConstantTrace(0.5, 15), static_all_big(platform), seed=1
        )
        b = run_experiment(
            platform, websearch(), ConstantTrace(0.5, 15), static_all_big(platform), seed=2
        )
        assert not np.array_equal(a.tails_ms, b.tails_ms)

    def test_simulator_runs_once(self, platform):
        sim = IntervalSimulator(
            platform, websearch(), ConstantTrace(0.5, 5), static_all_big(platform)
        )
        sim.run()
        with pytest.raises(RuntimeError, match="exactly once"):
            sim.run()

    @pytest.mark.parametrize("n_intervals", [0, -1])
    def test_non_positive_interval_cap_rejected(self, platform, n_intervals):
        """A zero cap is a cap, not "the whole trace"."""
        sim = IntervalSimulator(
            platform, websearch(), ConstantTrace(0.5, 30), static_all_big(platform)
        )
        with pytest.raises(ValueError, match="n_intervals must be positive"):
            sim.run(n_intervals)

    def test_energy_consistency(self, platform):
        """Result energy equals the meter's registers."""
        sim = IntervalSimulator(
            platform, websearch(), ConstantTrace(0.5, 10), static_all_big(platform)
        )
        result = sim.run()
        assert result.total_energy_j() == pytest.approx(sim.energy_meter.total_j)

    def test_invalid_engine_config_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(interval_s=0)
        with pytest.raises(ValueError):
            EngineConfig(migration_penalty_s=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_backlog_s", float("nan")),
            ("migration_penalty_s", float("nan")),
            ("balance_exponent", float("nan")),
            ("interval_s", float("inf")),
        ],
    )
    def test_non_finite_engine_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EngineConfig(**{field: value})


class TestPhysicalSanity:
    def test_latency_increases_with_load(self, platform):
        tails = []
        for load in (0.3, 0.7, 0.97):
            result = run_experiment(
                platform, memcached(), ConstantTrace(load, 30),
                static_all_big(platform), seed=3,
            )
            tails.append(float(np.median(result.tails_ms)))
        assert tails[0] < tails[1] < tails[2]

    def test_power_increases_with_load(self, platform):
        powers = []
        for load in (0.1, 0.9):
            result = run_experiment(
                platform, memcached(), ConstantTrace(load, 20),
                static_all_big(platform), seed=3,
            )
            powers.append(result.mean_power_w())
        assert powers[0] < powers[1]

    def test_small_cores_violate_at_high_load(self, platform):
        result = run_experiment(
            platform, memcached(), ConstantTrace(0.95, 25),
            static_all_small(platform), seed=3,
        )
        assert result.qos_guarantee() < 0.3

    def test_big_cores_meet_at_moderate_load(self, platform):
        result = run_experiment(
            platform, memcached(), ConstantTrace(0.6, 25),
            static_all_big(platform), seed=3,
        )
        assert result.qos_guarantee() > 0.9

    def test_overload_recovers_after_load_drop(self, platform):
        trace = StepTrace([(15, 1.0), (25, 0.3)])
        config = Configuration(0, 4, None, 0.65)  # undersized at 100%
        result = run_experiment(
            platform, memcached(), trace, StaticPolicy(config), seed=3
        )
        assert result.observations[14].tail_latency_ms > 10.0  # overloaded
        assert result.observations[-1].tail_latency_ms < 10.0  # recovered

    def test_dvfs_throttling_saves_power(self, platform):
        fast = run_experiment(
            platform, websearch(), ConstantTrace(0.3, 20),
            StaticPolicy(Configuration(2, 0, 1.15, None)), seed=3,
        )
        slow = run_experiment(
            platform, websearch(), ConstantTrace(0.3, 20),
            StaticPolicy(Configuration(2, 0, 0.60, None)), seed=3,
        )
        assert slow.mean_power_w() < fast.mean_power_w()
        assert slow.qos_guarantee() > 0.8  # still meets at 30% load


class TestMigrationCost:
    def test_oscillation_hurts_qos(self, platform):
        """Flipping between clusters every interval must cost QoS versus
        holding either configuration (the paper's core observation)."""

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

        steady = run_experiment(
            platform, memcached(), ConstantTrace(0.55, 40),
            static_all_big(platform), seed=3,
        )
        flapping = run_experiment(
            platform, memcached(), ConstantTrace(0.55, 40), Flapper(), seed=3
        )
        assert flapping.qos_guarantee() < steady.qos_guarantee() - 0.2

    def test_dvfs_change_is_cheap(self, platform):
        """Flipping DVFS (same cores) must not meaningfully hurt QoS."""

        class DvfsFlapper(StaticPolicy):
            def __init__(self):
                super().__init__(Configuration(2, 0, 1.15, None), name="dvfs-flapper")
                self._flip = False

            def decide(self):
                from repro.policies.base import resolve_decision

                self._flip = not self._flip
                freq = 1.15 if self._flip else 0.90
                return resolve_decision(
                    self.ctx.platform,
                    Configuration(2, 0, freq, None),
                    collocate_batch=False,
                )

        result = run_experiment(
            platform, memcached(), ConstantTrace(0.55, 40), DvfsFlapper(), seed=3
        )
        assert result.qos_guarantee() > 0.9
        assert result.migration_events() == 0


class TestCollocation:
    def test_batch_ips_reported(self, platform):
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.4, 15),
            static_all_big(platform, collocate_batch=True),
            batch_jobs=spec_job_set("calculix"), seed=3,
        )
        assert result.batch_mean_ips() > 1e9
        assert all(o.small_ips > 0 for o in result)
        assert all(o.big_ips == 0 for o in result)  # LC owns the big cluster

    def test_no_batch_without_flag(self, platform):
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.4, 10),
            static_all_big(platform, collocate_batch=False),
            batch_jobs=spec_job_set("calculix"), seed=3,
        )
        assert result.batch_total_instructions() == 0

    def test_contention_slows_lc(self, platform):
        alone = run_experiment(
            platform, websearch(), ConstantTrace(0.8, 30),
            static_all_big(platform), seed=3,
        )
        shared = run_experiment(
            platform, websearch(), ConstantTrace(0.8, 30),
            static_all_big(platform, collocate_batch=True),
            batch_jobs=spec_job_set("lbm"), seed=3,
        )
        assert float(np.mean(shared.tails_ms)) > float(np.mean(alone.tails_ms))

    def test_counters_poisoned_with_cpuidle_enabled(self, platform):
        """The Juno perf bug makes counters garbage whenever any core goes
        idle while CPUidle is enabled -- the exact constraint from paper
        Section 3.7.  At near-zero load an LC core idles through whole
        intervals, poisoning every counter in the sample."""
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.01, 20),
            static_all_big(platform, collocate_batch=True),
            batch_jobs=spec_job_set("calculix"),
            kernel=KernelConfig(cpuidle_enabled=True),
            seed=3,
        )
        assert any(o.counter_garbage for o in result)

    def test_counters_clean_with_cpuidle_disabled(self, platform):
        """Hipster's workaround: disabling CPUidle keeps counters honest."""
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.01, 20),
            static_all_big(platform, collocate_batch=True),
            batch_jobs=spec_job_set("calculix"),
            kernel=KernelConfig(cpuidle_enabled=False),
            seed=3,
        )
        assert not any(o.counter_garbage for o in result)


class TestResultAccessors:
    def test_slice_by_time(self, platform):
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.5, 30), static_all_big(platform)
        )
        tail = result.slice(10.0, 20.0)
        assert len(tail) == 10
        assert tail.observations[0].t_start_s == 10.0

    def test_windowed_qos(self, platform):
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.5, 30), static_all_big(platform)
        )
        windows = result.windowed_qos_guarantee(10.0)
        assert len(windows) == 3
        assert all(0.0 <= w <= 1.0 for w in windows)

    def test_energy_reduction_sign(self, platform):
        big = run_experiment(
            platform, websearch(), ConstantTrace(0.3, 20), static_all_big(platform), seed=3
        )
        small = run_experiment(
            platform, websearch(), ConstantTrace(0.3, 20), static_all_small(platform), seed=3
        )
        assert small.energy_reduction_vs(big) > 0
        assert big.energy_reduction_vs(small) < 0
