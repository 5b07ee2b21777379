"""Tests for the calibration module and the run-length helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.calibration import (
    CalibrationResult,
    edge_tail_ms,
    validate_frozen_calibration,
)
from repro.loadgen.traces import ConstantTrace
from repro.policies.base import TaskManager
from repro.policies.static import static_all_big
from repro.scenarios import learning_seconds
from repro.scenarios.factories import build_manager, build_workload
from repro.scenarios.registry import diurnal_duration_s, standard_policy_specs
from repro.sim.engine import run_experiment
from repro.sim.records import (
    ExperimentResult,
    IntervalObservation,
    ObservationTable,
)
from repro.workloads.memcached import memcached
from repro.workloads.websearch import websearch


class TestCalibration:
    def test_frozen_constants_still_at_the_edge(self, platform):
        """The workload defaults must keep 100% load at the target edge;
        failing here means a platform/model change requires re-running
        calibrate_demand and freezing new constants."""
        for workload in (memcached(), websearch()):
            outcome = validate_frozen_calibration(
                platform, workload, duration_s=120.0
            )
            assert outcome.relative_error <= 0.25

    def test_edge_tail_monotone_in_demand(self, platform):
        """More work per request means a higher edge tail (the property
        bisection relies on)."""
        workload = websearch()
        light = edge_tail_ms(
            platform, workload.with_overrides(demand_mean_ms=20.0), duration_s=60
        )
        heavy = edge_tail_ms(
            platform, workload.with_overrides(demand_mean_ms=34.0), duration_s=60
        )
        assert light < heavy

    def test_validation_raises_on_drift(self, platform):
        drifted = websearch().with_overrides(demand_mean_ms=5.0)  # way light
        with pytest.raises(ValueError, match="re-run"):
            validate_frozen_calibration(platform, drifted, duration_s=60.0)

    def test_result_relative_error(self):
        result = CalibrationResult(
            workload_name="x",
            demand_mean_ms=1.0,
            edge_tail_ms=11.0,
            target_ms=10.0,
            iterations=5,
        )
        assert result.relative_error == pytest.approx(0.1)


class TestRunnerHelpers:
    """Lookups and run lengths the experiment modules build their runs from."""

    def test_workload_lookup(self):
        assert build_workload("memcached").name == "memcached"
        assert build_workload("websearch").name == "websearch"
        with pytest.raises(KeyError, match="unknown workload"):
            build_workload("redis")

    def test_diurnal_lengths(self):
        assert diurnal_duration_s("memcached") == 1400.0
        assert diurnal_duration_s("memcached", quick=True) == 420.0
        assert diurnal_duration_s("websearch") == 1000.0

    def test_learning_seconds(self):
        assert learning_seconds() == 500.0
        assert learning_seconds(quick=True) == 150.0

    def test_policy_set_is_the_table3_lineup(self, platform):
        specs = standard_policy_specs("memcached")
        managers = {
            name: build_manager(spec.manager, platform, spec.manager_params)
            for name, spec in specs.items()
        }
        assert set(managers) == {
            "static-big",
            "static-small",
            "hipster-heuristic",
            "octopus-man",
            "hipster-in",
        }
        assert all(isinstance(m, TaskManager) for m in managers.values())
        assert managers["hipster-in"].params.learning_duration_s == 500.0

    def test_hipster_in_factory_overrides(self, platform):
        manager = build_manager(
            "hipster-in",
            platform,
            (("learning_duration_s", 42.0), ("epsilon", 0.0)),
        )
        assert manager.params.learning_duration_s == 42.0
        assert manager.params.epsilon == 0.0


class TestExperimentResultInvariants:
    @pytest.fixture(scope="class")
    def result(self, platform):
        return run_experiment(
            platform, websearch(), ConstantTrace(0.5, 25),
            static_all_big(platform), seed=9,
        )

    @pytest.fixture(scope="class")
    def platform(self):
        from repro.hardware.juno import juno_r1

        return juno_r1()

    def test_energy_is_power_times_time(self, result):
        assert result.total_energy_j() == pytest.approx(
            float(np.sum(result.powers_w)) * result.interval_s
        )

    def test_guarantee_consistent_with_observations(self, result):
        manual = sum(o.qos_met for o in result) / len(result)
        assert result.qos_guarantee() == pytest.approx(manual)

    def test_slices_partition_metrics(self, result):
        head = result.slice(0, 10)
        tail = result.slice(10)
        assert len(head) + len(tail) == len(result)
        assert head.total_energy_j() + tail.total_energy_j() == pytest.approx(
            result.total_energy_j()
        )

    def test_observation_fields_consistent(self, result):
        for o in result:
            assert isinstance(o, IntervalObservation)
            assert o.qos_met == (o.tail_latency_ms <= 500.0)
            assert o.tardiness == pytest.approx(o.tail_latency_ms / 500.0)
            assert o.energy_j == pytest.approx(o.power_w * o.duration_s)

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            ExperimentResult(
                ObservationTable(0), workload_name="x", manager_name="y",
                target_latency_ms=1.0, interval_s=1.0,
            )

    @settings(max_examples=10, deadline=None)
    @given(window=st.floats(min_value=1.0, max_value=30.0))
    def test_windowed_qos_bounded(self, result, window):
        windows = result.windowed_qos_guarantee(window)
        assert np.all((windows >= 0.0) & (windows <= 1.0))
