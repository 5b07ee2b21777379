"""Unit tests for the DVFS controller, power model, energy meter,
perf counters (with the Juno idle bug) and affinity manager."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.affinity import AffinityManager
from repro.hardware.counters import PerfCounters
from repro.hardware.dvfs import DVFSController
from repro.hardware.power import EnergyMeter, PowerModel
from repro.hardware.soc import KernelConfig
from repro.hardware.topology import Configuration


class TestDVFS:
    def test_starts_at_max(self, platform):
        dvfs = DVFSController(platform.clusters)
        assert dvfs.frequency("big") == 1.15
        assert dvfs.frequency("small") == 0.65

    def test_transition_counting(self, platform):
        dvfs = DVFSController(platform.clusters)
        assert dvfs.set_frequency("big", 0.60) is True
        assert dvfs.set_frequency("big", 0.60) is False  # no-op
        assert dvfs.set_frequency("big", 0.90) is True
        assert dvfs.transitions == 2

    def test_invalid_operating_point_rejected(self, platform):
        dvfs = DVFSController(platform.clusters)
        with pytest.raises(ValueError, match="not an operating point"):
            dvfs.set_frequency("big", 1.0)

    def test_unknown_cluster_rejected(self, platform):
        dvfs = DVFSController(platform.clusters)
        with pytest.raises(KeyError):
            dvfs.frequency("gpu")

    def test_set_frequency_spans_the_operating_range(self, platform):
        dvfs = DVFSController(platform.clusters)
        big = next(c for c in platform.clusters if c.name == "big")
        assert dvfs.set_frequency("big", big.min_freq_ghz)
        assert dvfs.frequency("big") == 0.60
        assert dvfs.set_frequency("big", big.max_freq_ghz)
        assert dvfs.frequency("big") == 1.15

    def test_snapshot(self, platform):
        dvfs = DVFSController(platform.clusters)
        assert dvfs.snapshot() == {"big": 1.15, "small": 0.65}


class TestPowerModel:
    def test_breakdown_channels_sum(self, platform):
        model = PowerModel(platform)
        breakdown = model.breakdown(1.15, 0.65, {"B0": 1.0, "S0": 0.5})
        assert breakdown.total_w == pytest.approx(
            breakdown.big_w + breakdown.small_w + breakdown.rest_w
        )
        assert breakdown.rest_w == platform.rest_of_system_w

    def test_more_utilization_more_power(self, platform):
        model = PowerModel(platform)
        low = model.breakdown(1.15, 0.65, {"B0": 0.2}).total_w
        high = model.breakdown(1.15, 0.65, {"B0": 0.9}).total_w
        assert low < high

    def test_cpuidle_gates_idle_cores(self, platform):
        gated = PowerModel(platform, KernelConfig(cpuidle_enabled=True))
        ungated = PowerModel(platform, KernelConfig(cpuidle_enabled=False))
        utils = {"B0": 1.0}
        assert (
            gated.breakdown(1.15, 0.65, utils).total_w
            < ungated.breakdown(1.15, 0.65, utils).total_w
        )

    def test_unknown_core_rejected(self, platform):
        with pytest.raises(ValueError, match="unknown core ids"):
            PowerModel(platform).breakdown(1.15, 0.65, {"X9": 1.0})


class TestEnergyMeter:
    def test_registers_accumulate(self, platform):
        model = PowerModel(platform)
        meter = EnergyMeter()
        breakdown = model.breakdown(1.15, 0.65, {"B0": 1.0})
        meter.record(breakdown, 2.0)
        meter.record(breakdown, 3.0)
        assert meter.total_j == pytest.approx(breakdown.total_w * 5.0)
        assert meter.elapsed_s == 5.0
        assert meter.mean_power_w == pytest.approx(breakdown.total_w)

    def test_read_is_monotone(self, platform):
        meter = EnergyMeter()
        model = PowerModel(platform)
        breakdown = model.breakdown(1.15, 0.65, {})
        first = meter.read()
        meter.record(breakdown, 1.0)
        second = meter.read()
        assert all(second[k] >= first[k] for k in first)

    def test_negative_duration_rejected(self, platform):
        meter = EnergyMeter()
        breakdown = PowerModel(platform).breakdown(1.15, 0.65, {})
        with pytest.raises(ValueError):
            meter.record(breakdown, -1.0)


def _dense_ips(platform, ips_by_core):
    """Per-core IPS in the platform's dense core order (absent = idle)."""
    return np.array([float(ips_by_core.get(cid, 0.0)) for cid in platform.core_ids])


class TestPerfCounters:
    def test_faithful_when_cpuidle_disabled(self, platform, rng):
        counters = PerfCounters(platform, KernelConfig(cpuidle_enabled=False))
        truth = _dense_ips(platform, {"B0": 1e9, "B1": 0.0})
        sample, garbage = counters.read_array(truth, rng)
        assert not garbage
        assert sample[platform.core_index["B0"]] == 1e9
        assert sample[platform.core_index["B1"]] == 0.0
        assert len(sample) == platform.n_cores

    def test_juno_bug_fires_with_idle_core_and_cpuidle(self, platform, rng):
        counters = PerfCounters(platform, KernelConfig(cpuidle_enabled=True))
        truth = _dense_ips(platform, {"B0": 1e9})  # other cores idle
        sample, garbage = counters.read_array(truth, rng)
        assert garbage
        assert sample[platform.core_index["B0"]] != 1e9

    def test_no_bug_when_all_cores_busy(self, platform, rng):
        counters = PerfCounters(platform, KernelConfig(cpuidle_enabled=True))
        truth = np.full(platform.n_cores, 1e9)
        sample, garbage = counters.read_array(truth, rng)
        assert not garbage
        assert np.array_equal(sample, truth)

    def test_bug_can_be_disabled(self, platform, rng):
        counters = PerfCounters(
            platform, KernelConfig(cpuidle_enabled=True), juno_perf_bug=False
        )
        sample, garbage = counters.read_array(_dense_ips(platform, {"B0": 1e9}), rng)
        assert not garbage
        assert sample[platform.core_index["B0"]] == 1e9


class TestAffinity:
    def test_lc_cores_are_lowest_numbered(self, platform):
        manager = AffinityManager(platform)
        placement = manager.apply(Configuration(1, 2, 1.15, 0.65))
        assert placement.lc_cores == ("B0", "S0", "S1")

    def test_batch_jobs_fill_remaining_cores(self, platform):
        manager = AffinityManager(platform)
        placement = manager.apply(Configuration(0, 2, None, 0.65), n_batch_jobs=4)
        assert set(placement.batch_assignment) == {"B0", "B1", "S2", "S3"}

    def test_surplus_batch_jobs_are_suspended(self, platform):
        manager = AffinityManager(platform)
        placement = manager.apply(Configuration(2, 2, 1.15, 0.65), n_batch_jobs=6)
        assert len(placement.batch_assignment) == 2  # only two free cores

    def test_migration_counting(self, platform):
        manager = AffinityManager(platform)
        first = manager.apply(Configuration(2, 0, 1.15, None))
        assert first.migration_event is False  # initial placement is free
        same = manager.apply(Configuration(2, 0, 0.90, None))
        assert same.migration_event is False  # DVFS change, same cores
        moved = manager.apply(Configuration(0, 4, None, 0.65))
        assert moved.migration_event is True
        assert moved.migrated_cores == 6  # 2 out, 4 in
        assert manager.migration_events == 1

    def test_roles(self, platform):
        manager = AffinityManager(platform)
        placement = manager.apply(Configuration(1, 0, 1.15, None), n_batch_jobs=1)
        assert placement.lc_cores == ("B0",)
        assert placement.batch_assignment == {"B1": 0}
        assert "S3" in platform.core_ids
        assert "S3" not in placement.lc_cores + tuple(placement.batch_assignment)
