"""Tests for the calibration module and the experiment runner helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.calibration import (
    CalibrationResult,
    edge_tail_ms,
    validate_frozen_calibration,
)
from repro.experiments.runner import (
    PolicySet,
    diurnal_for,
    hipster_in_for,
    learning_seconds,
    workload_by_name,
)
from repro.loadgen.traces import ConstantTrace
from repro.policies.static import static_all_big
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
    def test_workload_lookup(self):
        assert workload_by_name("memcached").name == "memcached"
        assert workload_by_name("websearch").name == "websearch"
        with pytest.raises(KeyError, match="unknown workload"):
            workload_by_name("redis")

    def test_diurnal_lengths(self):
        assert diurnal_for(memcached()).duration_s == 1400.0
        assert diurnal_for(memcached(), quick=True).duration_s == 420.0
        assert diurnal_for(websearch()).duration_s == 1000.0

    def test_learning_seconds(self):
        assert learning_seconds() == 500.0
        assert learning_seconds(quick=True) == 150.0

    def test_policy_set_is_the_table3_lineup(self, platform):
        managers = PolicySet().build(platform)
        assert set(managers) == {
            "static-big",
            "static-small",
            "hipster-heuristic",
            "octopus-man",
            "hipster-in",
        }

    def test_hipster_in_for_overrides(self):
        manager = hipster_in_for(learning_s=42.0, epsilon=0.0)
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
