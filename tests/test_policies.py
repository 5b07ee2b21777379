"""Tests for the task-manager interface and baseline policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hardware.topology import Configuration
from repro.loadgen.traces import ConstantTrace, StepTrace
from repro.policies.base import Decision, ManagerContext, resolve_decision
from repro.policies.octopusman import OctopusMan, default_qos_safe
from repro.policies.static import static_all_big, static_all_small
from repro.policies.table_driven import TableDrivenPolicy
from repro.sim.engine import run_experiment
from repro.workloads.memcached import memcached
from repro.workloads.websearch import websearch


class TestDecision:
    def test_resolve_lc_clusters_keep_config_freq(self, platform):
        decision = resolve_decision(
            platform, Configuration(2, 2, 0.90, 0.65), collocate_batch=False
        )
        assert decision.big_freq_ghz == 0.90
        assert decision.small_freq_ghz == 0.65

    def test_hipsterin_parks_other_cluster_at_min(self, platform):
        decision = resolve_decision(
            platform, Configuration(0, 4, None, 0.65), collocate_batch=False
        )
        assert decision.big_freq_ghz == platform.big.min_freq_ghz
        assert decision.run_batch is False

    def test_hipsterco_races_other_cluster_to_max(self, platform):
        decision = resolve_decision(
            platform, Configuration(0, 4, None, 0.65), collocate_batch=True
        )
        assert decision.big_freq_ghz == platform.big.max_freq_ghz
        assert decision.run_batch is True

    def test_conflicting_frequency_rejected(self):
        with pytest.raises(ValueError, match="fixed by the configuration"):
            Decision(
                config=Configuration(2, 0, 1.15, None),
                big_freq_ghz=0.60,
                small_freq_ghz=0.65,
            )

    def test_manager_requires_start(self, platform):
        policy = static_all_big(platform)
        with pytest.raises(RuntimeError, match="not started"):
            _ = policy.ctx


class TestStatic:
    def test_static_big_shape(self, platform):
        policy = static_all_big(platform)
        policy.start(_ctx(platform))
        decision = policy.decide()
        assert decision.config.label == "2B-1.15"

    def test_static_small_shape(self, platform):
        policy = static_all_small(platform)
        policy.start(_ctx(platform))
        assert policy.decide().config.label == "4S-0.65"

    def test_static_never_migrates(self, platform):
        result = run_experiment(
            platform, websearch(), ConstantTrace(0.5, 15), static_all_big(platform)
        )
        assert result.migration_events() == 0
        assert len({row.config_label for row in result.observations}) == 1


def _ctx(platform, workload=None):
    return ManagerContext(
        platform=platform,
        workload=workload or websearch(),
        interval_s=1.0,
        rng=np.random.default_rng(0),
    )


class TestOctopusMan:
    def test_descends_at_low_load(self, platform):
        result = run_experiment(
            platform, memcached(), ConstantTrace(0.15, 60), OctopusMan(), seed=3
        )
        labels = {row.config_label for row in result.observations[30:]}
        assert labels & {"1S-0.65", "2S-0.65", "3S-0.65"}

    def test_never_mixes_clusters(self, platform):
        result = run_experiment(
            platform, memcached(), ConstantTrace(0.6, 40), OctopusMan(), seed=3
        )
        for o in result:
            config = o.decision.config
            assert config.single_cluster_kind is not None

    def test_always_max_dvfs(self, platform):
        result = run_experiment(
            platform, memcached(), ConstantTrace(0.6, 40), OctopusMan(), seed=3
        )
        for o in result:
            config = o.decision.config
            if config.n_big:
                assert config.big_freq_ghz == platform.big.max_freq_ghz

    def test_climbs_under_load_step(self, platform):
        trace = StepTrace([(40, 0.15), (40, 0.95)])
        result = run_experiment(platform, memcached(), trace, OctopusMan(), seed=3)
        assert result.observations[-1].decision.config.label == "2B-1.15"

    def test_per_workload_default_safe(self):
        assert default_qos_safe("memcached") == 0.30
        assert default_qos_safe("websearch") == 0.45
        assert default_qos_safe("other") == 0.30


class TestTableDriven:
    def test_lookup_by_threshold(self, platform):
        table = [
            (0.3, Configuration(0, 2, None, 0.65)),
            (0.7, Configuration(0, 4, None, 0.65)),
            (1.0, Configuration(2, 0, 1.15, None)),
        ]
        policy = TableDrivenPolicy(table)
        assert policy.config_for(0.1).label == "2S-0.65"
        assert policy.config_for(0.5).label == "4S-0.65"
        assert policy.config_for(0.99).label == "2B-1.15"
        assert policy.config_for(1.2).label == "2B-1.15"

    def test_unsorted_table_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            TableDrivenPolicy(
                [
                    (0.7, Configuration(0, 4, None, 0.65)),
                    (0.3, Configuration(0, 2, None, 0.65)),
                ]
            )

    def test_follows_measured_load(self, platform):
        table = [
            (0.4, Configuration(0, 4, None, 0.65)),
            (1.0, Configuration(2, 0, 1.15, None)),
        ]
        trace = StepTrace([(20, 0.2), (20, 0.9)])
        result = run_experiment(
            platform, memcached(), trace, TableDrivenPolicy(table), seed=3
        )
        assert result.observations[10].config_label == "4S-0.65"
        assert result.observations[-1].config_label == "2B-1.15"


class TestEpochContract:
    """The optional stable_horizon/epoch_continue decision-epoch contract."""

    def started(self, policy, platform):
        from repro.policies.base import ManagerContext

        policy.start(
            ManagerContext(
                platform=platform,
                workload=memcached(),
                interval_s=1.0,
                rng=np.random.default_rng(0),
                batch_present=False,
            )
        )
        return policy

    def test_default_pins_scalar_path(self, platform):
        from repro.policies.base import TaskManager

        class Minimal(TaskManager):
            def decide(self):
                raise NotImplementedError

        manager = Minimal()
        assert manager.stable_horizon([0.1, 0.2, 0.3]) == 1
        assert manager.epoch_continue(0.1) is False

    def test_static_claims_whole_lookahead(self, platform):
        policy = self.started(static_all_big(platform), platform)
        policy.decide()
        assert policy.stable_horizon([0.1] * 40) == 40
        assert policy.stable_horizon([]) == 0
        assert policy.epoch_continue(0.99) is True
        assert policy.epoch_continue(0.0) is True

    def test_table_driven_bucket_stable_prefix(self, platform):
        table = [
            (0.3, Configuration(0, 2, None, 0.65)),
            (0.7, Configuration(0, 4, None, 0.65)),
            (1.0, Configuration(2, 0, 1.15, None)),
        ]
        policy = self.started(TableDrivenPolicy(table), platform)
        policy._last_load = 0.1
        policy.decide()
        # Prefix within the first bucket, cut at the 0.3 threshold.
        assert policy.stable_horizon([0.1, 0.25, 0.3, 0.5, 0.1]) == 3
        assert policy.stable_horizon([0.5, 0.1]) == 1
        assert policy.stable_horizon([0.2] * 10) == 10
        # Continuation follows the measured-load bucket, by identity.
        assert policy.epoch_continue(0.25) is True
        assert policy.epoch_continue(0.35) is False

    def test_feedback_policies_pin_scalar(self, platform):
        from repro.core.heuristic import HipsterHeuristicPolicy
        from repro.core.hipster import Hipster
        from repro.policies.base import TaskManager

        for cls in (OctopusMan, HipsterHeuristicPolicy, Hipster):
            assert cls.stable_horizon is not TaskManager.stable_horizon
            policy = cls()
            assert policy.stable_horizon([0.1] * 20) == 1
            # epoch_continue stays the default False: a horizon of one
            # plus no continuation keeps the engine's scalar loop.
            assert policy.epoch_continue(0.1) is False
