"""Unit tests for latency statistics and the contention model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import aggregate_pressure
from repro.hardware.cores import CoreKind
from repro.sim.contention import ClusterPressure, ContentionModel
from repro.sim.latency import (
    qos_guarantee,
    qos_tardiness,
    summarize_latencies,
)


class TestLatencyStats:
    def test_percentile_bounds(self):
        sample = summarize_latencies(np.array([1.0, 2.0, 3.0, 100.0]), 0.95)
        assert 3.0 <= sample.tail_latency_ms <= 100.0
        assert sample.n_requests == 4

    def test_empty_interval_uses_idle_floor(self):
        sample = summarize_latencies(np.empty(0), 0.95, idle_latency_ms=2.5)
        assert sample.tail_latency_ms == 2.5
        assert sample.n_requests == 0

    def test_invalid_percentile_rejected(self):
        with pytest.raises(ValueError):
            summarize_latencies(np.array([1.0]), 95.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_latency_rejected(self, bad):
        """A NaN would otherwise slip past the partition-based quantile:
        ``np.quantile([1, 2, nan], 0.5)`` is nan, the selection gave 2.0."""
        with pytest.raises(ValueError, match="finite"):
            summarize_latencies(np.array([1.0, 2.0, bad]), 0.5)

    def test_violation_and_tardiness(self):
        sample = summarize_latencies(np.full(100, 12.0), 0.95)
        assert sample.violates(10.0)
        assert sample.tardiness(10.0) == pytest.approx(1.2)

    def test_qos_guarantee_counts_met_intervals(self):
        tails = np.array([5.0, 9.0, 11.0, 20.0])
        assert qos_guarantee(tails, 10.0) == pytest.approx(0.5)
        assert qos_guarantee(np.empty(0), 10.0) == 1.0

    def test_qos_tardiness_conditioned_on_violation(self):
        tails = np.array([5.0, 15.0, 25.0])
        assert qos_tardiness(tails, 10.0) == pytest.approx(2.0)
        assert qos_tardiness(np.array([1.0]), 10.0) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=200)
    )
    def test_tail_within_sample_range(self, values):
        sample = summarize_latencies(np.array(values), 0.9)
        assert min(values) <= sample.tail_latency_ms <= max(values)
        assert sample.mean_latency_ms == pytest.approx(float(np.mean(values)))


class TestContention:
    def test_pressure_aggregation_by_cluster(self):
        pressure = aggregate_pressure(
            {"B0": 0.9, "S0": 0.5, "S1": 0.1}, big_core_ids=("B0", "B1")
        )
        assert pressure.big == pytest.approx(0.9)
        assert pressure.small == pytest.approx(0.6)
        assert pressure.total == pytest.approx(1.5)

    def test_no_batch_no_slowdown(self):
        model = ContentionModel()
        empty = ClusterPressure(big=0.0, small=0.0)
        assert model.lc_slowdown(CoreKind.BIG, empty) == 1.0
        assert model.batch_throughput_factor(CoreKind.BIG, 0.5, empty) == 1.0

    def test_same_cluster_hurts_more_than_remote(self):
        model = ContentionModel()
        local = ClusterPressure(big=1.0, small=0.0)
        remote = ClusterPressure(big=0.0, small=1.0)
        assert model.lc_slowdown(CoreKind.BIG, local) > model.lc_slowdown(
            CoreKind.BIG, remote
        )

    def test_sensitivity_scales_slowdown(self):
        model = ContentionModel()
        pressure = ClusterPressure(big=1.0, small=1.0)
        mild = model.lc_slowdown(CoreKind.BIG, pressure, sensitivity=0.5)
        harsh = model.lc_slowdown(CoreKind.BIG, pressure, sensitivity=2.0)
        assert 1.0 < mild < harsh

    def test_batch_does_not_contend_with_itself(self):
        model = ContentionModel()
        alone = ClusterPressure(big=0.9, small=0.0)
        factor = model.batch_throughput_factor(CoreKind.BIG, 0.9, alone)
        assert factor == 1.0  # own pressure subtracted out

    def test_lc_pressure_degrades_batch(self):
        model = ContentionModel()
        pressure = ClusterPressure(big=0.5, small=0.0)
        quiet = model.batch_throughput_factor(CoreKind.BIG, 0.5, pressure)
        shared = model.batch_throughput_factor(
            CoreKind.BIG, 0.5, pressure, lc_pressure=0.7
        )
        assert shared < quiet

    def test_negative_sensitivity_rejected(self):
        model = ContentionModel()
        with pytest.raises(ValueError):
            model.lc_slowdown(
                CoreKind.BIG, ClusterPressure(0, 0), sensitivity=-1.0
            )

    @settings(max_examples=30, deadline=None)
    @given(
        big=st.floats(min_value=0, max_value=4),
        small=st.floats(min_value=0, max_value=4),
        own=st.floats(min_value=0, max_value=1),
    )
    def test_factors_bounded(self, big, small, own):
        model = ContentionModel()
        pressure = ClusterPressure(big=big, small=small)
        assert model.lc_slowdown(CoreKind.SMALL, pressure) >= 1.0
        factor = model.batch_throughput_factor(CoreKind.SMALL, own, pressure)
        assert 0.0 < factor <= 1.0
