"""Integration tests for the Hipster manager (Algorithm 2 end to end)."""

from __future__ import annotations

import pytest

from repro.core.hipster import Hipster, HipsterParams, Phase, Variant, hipster_co, hipster_in
from repro.loadgen.diurnal import DiurnalTrace
from repro.loadgen.traces import ConstantTrace, StepTrace
from repro.policies.octopusman import OctopusMan
from repro.policies.static import static_all_big
from repro.sim.engine import run_experiment
from repro.workloads.memcached import memcached
from repro.workloads.spec import spec_job_set
from repro.workloads.websearch import websearch


def short_params(**overrides):
    defaults = dict(learning_duration_s=80.0, reenter_window_s=50.0)
    defaults.update(overrides)
    return HipsterParams(**defaults)


class TestPhases:
    def test_starts_in_learning_then_exploits(self, platform):
        manager = hipster_in(short_params())
        run_experiment(
            platform, websearch(), ConstantTrace(0.5, 120), manager, seed=3
        )
        assert manager.phase is Phase.EXPLOITATION
        assert manager.phase_switches >= 1

    def test_table_populated_during_learning(self, platform):
        manager = hipster_in(short_params())
        run_experiment(
            platform, websearch(), ConstantTrace(0.5, 100), manager, seed=3
        )
        assert len(manager.table) > 0

    def test_reenters_learning_on_persistent_violations(self, platform):
        """Algorithm 2, line 18: a load the table never saw at a level the
        current entries cannot serve forces re-entry."""
        manager = hipster_in(
            short_params(learning_duration_s=40.0, reenter_window_s=30.0)
        )
        trace = StepTrace([(70, 0.15), (120, 0.97)])
        run_experiment(platform, memcached(), trace, manager, seed=3)
        assert manager.phase_switches >= 2  # learn -> exploit -> learn (at least)

    def test_qos_window_count_tracks_the_window(self, platform):
        """The running QoS-met count equals ``sum(window)`` after every
        interval, across window wrap-around and phase switches."""
        checks = []

        class Checked(Hipster):
            def observe(self, observation):
                super().observe(observation)
                checks.append(self._qos_met_in_window == sum(self._qos_window))

        manager = Checked(
            Variant.INTERACTIVE,
            short_params(learning_duration_s=40.0, reenter_window_s=30.0),
        )
        trace = StepTrace([(70, 0.15), (120, 0.97)])
        run_experiment(platform, memcached(), trace, manager, seed=3)
        assert manager.phase_switches >= 2
        assert len(checks) == 190 and all(checks)

    def test_action_space_is_four_core_space(self, platform):
        manager = hipster_in(short_params())
        run_experiment(platform, websearch(), ConstantTrace(0.5, 5), manager, seed=3)
        assert len(manager.configurations) == 25
        assert all(c.total_cores <= 4 for c in manager.configurations)

    def test_variant_coercion(self):
        assert Hipster("in").variant is Variant.INTERACTIVE
        assert Hipster("co").variant is Variant.COLLOCATED
        with pytest.raises(ValueError):
            Hipster("turbo")

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HipsterParams(learning_duration_s=-1)
        with pytest.raises(ValueError):
            HipsterParams(reenter_threshold=1.5)
        with pytest.raises(ValueError):
            HipsterParams(epsilon=1.0)


class TestHipsterInBehaviour:
    def test_beats_octopus_on_qos(self, platform):
        """The paper's headline: HipsterIn improves the QoS guarantee over
        Octopus-Man on the diurnal day (Web-Search: 80% -> 96% there)."""
        workload = websearch()
        trace = DiurnalTrace(duration_s=600, seed=11)
        hipster = run_experiment(
            platform, workload, trace, hipster_in(short_params(learning_duration_s=200)),
            seed=5,
        )
        octopus = run_experiment(platform, workload, trace, OctopusMan(), seed=5)
        assert hipster.qos_guarantee() > octopus.qos_guarantee()

    def test_saves_energy_vs_static_big(self, platform):
        workload = memcached()
        trace = DiurnalTrace(duration_s=600, seed=11)
        hipster = run_experiment(
            platform, workload, trace, hipster_in(short_params(learning_duration_s=200)),
            seed=5,
        )
        static = run_experiment(platform, workload, trace, static_all_big(platform), seed=5)
        assert hipster.energy_reduction_vs(static) > 0.08

    def test_exploitation_adapts_configuration_to_load(self, platform):
        manager = hipster_in(short_params(learning_duration_s=150))
        trace = StepTrace([(150, 0.5), (40, 0.2), (40, 0.9)])
        result = run_experiment(platform, memcached(), trace, manager, seed=5)
        low = result.slice(160, 190)
        high = result.slice(200, 230)
        low_capacity = sum(o.decision.config.total_cores for o in low)
        # At 20% load the chosen configs must be cheaper than at 90%.
        assert low.mean_power_w() < high.mean_power_w()
        assert low_capacity <= sum(o.decision.config.total_cores for o in high) + len(low)

    def test_idle_cluster_parked_at_min(self, platform):
        manager = hipster_in(short_params())
        result = run_experiment(
            platform, memcached(), ConstantTrace(0.15, 120), manager, seed=5
        )
        small_only = [
            o for o in result if o.decision.config.single_cluster_kind is not None
            and o.decision.config.n_big == 0
        ]
        assert small_only  # low load must reach small-only configs
        assert all(
            o.big_freq_ghz == platform.big.min_freq_ghz for o in small_only
        )


class TestHipsterCoBehaviour:
    def test_runs_batch_on_leftover_cores(self, platform):
        manager = hipster_co(short_params())
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.4, 60), manager,
            batch_jobs=spec_job_set("calculix"), seed=5,
        )
        assert result.batch_total_instructions() > 0

    def test_batch_cluster_races_to_max(self, platform):
        manager = hipster_co(short_params())
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.2, 100), manager,
            batch_jobs=spec_job_set("calculix"), seed=5,
        )
        for o in result:
            config = o.decision.config
            if config.n_big == 0:  # LC on small only -> big cluster is batch
                assert o.big_freq_ghz == platform.big.max_freq_ghz

    def test_without_batch_jobs_degrades_to_power_objective(self, platform):
        manager = hipster_co(short_params())
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.4, 30), manager, seed=5
        )
        assert result.batch_total_instructions() == 0  # no jobs provided

    def test_co_beats_octopus_qos_when_collocated(self, platform):
        workload = websearch()
        trace = DiurnalTrace(duration_s=500, seed=11)
        jobs = spec_job_set("calculix")
        hipster = run_experiment(
            platform, workload, trace,
            hipster_co(short_params(learning_duration_s=200)),
            batch_jobs=jobs, seed=5,
        )
        octopus = run_experiment(
            platform, workload, trace, OctopusMan(collocate_batch=True),
            batch_jobs=jobs, seed=5,
        )
        assert hipster.qos_guarantee() > octopus.qos_guarantee()
