"""Unit tests for configurations, the config space and the ladders."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.heuristic import hipster_ladder, pareto_ladder
from repro.hardware.cores import CoreKind
from repro.hardware.topology import (
    PAPER_FIG2C_LADDER,
    Configuration,
    config_by_label,
    config_capacity_ips,
    config_power_w,
    enumerate_configurations,
    octopus_man_ladder,
    pareto_configurations,
    rank_configurations,
    validate_configuration,
)


class TestConfiguration:
    def test_labels_follow_paper_style(self):
        assert Configuration(2, 2, 0.90, 0.65).label == "2B2S-0.90"
        assert Configuration(0, 4, None, 0.65).label == "4S-0.65"
        assert Configuration(2, 0, 1.15, None).label == "2B-1.15"

    def test_empty_configuration_rejected(self):
        with pytest.raises(ValueError, match="at least one core"):
            Configuration(0, 0, None, None)

    def test_frequency_presence_must_match_cores(self):
        with pytest.raises(ValueError, match="big_freq"):
            Configuration(1, 0, None, None)
        with pytest.raises(ValueError, match="small_freq"):
            Configuration(0, 1, None, None)
        with pytest.raises(ValueError, match="big_freq"):
            Configuration(0, 1, 1.15, 0.65)

    def test_single_cluster_kind(self):
        assert Configuration(2, 0, 1.15, None).single_cluster_kind is CoreKind.BIG
        assert Configuration(0, 2, None, 0.65).single_cluster_kind is CoreKind.SMALL
        assert Configuration(1, 1, 1.15, 0.65).single_cluster_kind is None

    def test_validation_against_platform(self, platform):
        with pytest.raises(ValueError, match="only 2 big cores"):
            validate_configuration(platform, Configuration(3, 0, 1.15, None))
        with pytest.raises(ValueError, match="not an operating point"):
            validate_configuration(platform, Configuration(1, 0, 1.00, None))


class TestConfigurationSpace:
    def test_full_space_has_34_configs(self, platform):
        assert len(enumerate_configurations(platform)) == 34

    def test_four_core_space_has_25_configs(self, platform):
        assert len(enumerate_configurations(platform, max_total_cores=4)) == 25

    def test_space_has_no_duplicates(self, platform):
        configs = enumerate_configurations(platform)
        assert len(set(configs)) == len(configs)

    def test_config_by_label_roundtrip(self, platform):
        configs = enumerate_configurations(platform)
        for config in configs:
            assert config_by_label(configs, config.label) == config

    def test_config_by_label_unknown(self, platform):
        with pytest.raises(KeyError, match="no configuration"):
            config_by_label(enumerate_configurations(platform), "9B-1.15")

    @given(n_big=st.integers(0, 2), n_small=st.integers(0, 4))
    def test_capacity_monotone_in_cores(self, n_big, n_small):
        """Adding a core never reduces microbenchmark capacity."""
        platform = __import__("repro.hardware.juno", fromlist=["juno_r1"]).juno_r1()
        if n_big == 0 and n_small == 0:
            return
        config = Configuration(
            n_big,
            n_small,
            1.15 if n_big else None,
            0.65 if n_small else None,
        )
        base = config_capacity_ips(platform, config)
        if n_big < 2:
            bigger = Configuration(n_big + 1, n_small, 1.15, config.small_freq_ghz)
            assert config_capacity_ips(platform, bigger) > base

    def test_power_monotone_in_big_dvfs(self, platform):
        low = config_power_w(platform, Configuration(2, 0, 0.60, None))
        high = config_power_w(platform, Configuration(2, 0, 1.15, None))
        assert low < high


class TestLadders:
    def test_rank_is_capacity_sorted(self, platform):
        ranked = rank_configurations(platform)
        capacities = [config_capacity_ips(platform, c) for c in ranked]
        assert capacities == sorted(capacities)

    def test_pareto_frontier_monotone_in_both_axes(self, platform):
        frontier = pareto_configurations(platform)
        capacities = [config_capacity_ips(platform, c) for c in frontier]
        powers = [config_power_w(platform, c) for c in frontier]
        assert capacities == sorted(capacities)
        assert powers == sorted(powers)

    def test_pareto_frontier_not_dominated(self, platform):
        frontier = set(pareto_configurations(platform))
        all_measured = [
            (config_capacity_ips(platform, c), config_power_w(platform, c), c)
            for c in enumerate_configurations(platform)
        ]
        for cap, power, config in all_measured:
            if config not in frontier:
                continue
            dominated = any(
                (oc >= cap and op < power) or (oc > cap and op <= power)
                for oc, op, _ in all_measured
            )
            assert not dominated, config.label

    def test_hipster_ladder_is_the_paper_fig2c_ladder_on_juno(self, platform):
        ladder = hipster_ladder(platform)
        assert tuple(c.label for c in ladder) == PAPER_FIG2C_LADDER

    @pytest.mark.parametrize("max_total_cores", [4, None])
    def test_hipster_ladder_picks_the_configurations_a_label_scan_finds(
        self, platform, max_total_cores
    ):
        """The one-dict label lookup returns the configurations (first
        of each label) that a per-rung config_by_label scan finds."""
        configs = enumerate_configurations(platform, max_total_cores=max_total_cores)
        expected = tuple(
            config_by_label(configs, label) for label in PAPER_FIG2C_LADDER
        )
        ladder = hipster_ladder(platform, max_total_cores=max_total_cores)
        assert ladder == expected

    def test_hipster_ladder_top_is_max_single_thread_state(self, platform):
        assert hipster_ladder(platform)[-1].label == "2B-1.15"

    def test_pareto_ladder_limited_to_four_cores(self, platform):
        for config in pareto_ladder(platform, max_total_cores=4):
            assert config.total_cores <= 4

    def test_octopus_ladder_is_small_then_big_at_max_dvfs(self, platform):
        ladder = octopus_man_ladder(platform)
        labels = [c.label for c in ladder]
        assert labels == ["1S-0.65", "2S-0.65", "3S-0.65", "4S-0.65", "2B-1.15"]
        for config in ladder:
            assert config.single_cluster_kind is not None

    def test_octopus_ladder_with_single_big(self, platform):
        labels = [c.label for c in octopus_man_ladder(platform, include_single_big=True)]
        assert "1B-1.15" in labels
