"""Tests for the execution-chaos harness: deterministic fault
selection, the environment wire format, once-only marker claims and
seeded cache corruption."""

from __future__ import annotations

import os

import pytest

from repro.scenarios import ScenarioSpec, TraceSpec
from repro.sim import batch, chaos
from repro.sim.batch import MANIFEST_NAME, BatchRunner
from repro.sim.chaos import ChaosConfig


class TestFaultSelection:
    def test_targeted_lists_win_over_rates(self):
        config = ChaosConfig(
            seed=0,
            state_dir="/tmp/x",
            crash_rate=1,  # would otherwise crash everything
            poison_fingerprints=("fp-p",),
            kill_fingerprints=("fp-k",),
            hang_fingerprints=("fp-h",),
        )
        assert config.fault_for("fp-p") == "poison"
        assert config.fault_for("fp-k") == "kill"
        assert config.fault_for("fp-h") == "hang"
        assert config.fault_for("anything-else") == "crash"

    def test_rate_selection_is_seed_deterministic(self):
        config = ChaosConfig(seed=3, state_dir="/tmp/x", crash_rate=4)
        picks = {f"fp-{i}": config.fault_for(f"fp-{i}") for i in range(64)}
        again = {f"fp-{i}": config.fault_for(f"fp-{i}") for i in range(64)}
        assert picks == again
        crashed = [fp for fp, mode in picks.items() if mode == "crash"]
        # Roughly 1-in-4, and a different seed picks different victims.
        assert 4 <= len(crashed) <= 32
        other = ChaosConfig(seed=4, state_dir="/tmp/x", crash_rate=4)
        assert any(other.fault_for(fp) != picks[fp] for fp in picks)

    def test_zero_rates_and_empty_lists_select_nothing(self):
        config = ChaosConfig(seed=0)
        assert config.fault_for("fp-anything") is None

    def test_rate_without_state_dir_rejected(self):
        with pytest.raises(ValueError, match="state_dir"):
            ChaosConfig(seed=0, crash_rate=8)


class TestWireFormat:
    def test_encode_decode_roundtrip(self):
        config = ChaosConfig(
            seed=7,
            state_dir="/tmp/markers",
            crash_rate=8,
            hang_rate=16,
            hang_s=2.5,
            crash_fingerprints=("a", "b"),
            poison_fingerprints=("c",),
        )
        assert ChaosConfig.decode(config.encode()) == config

    def test_active_config_sets_and_restores_env(self, tmp_path):
        config = ChaosConfig(seed=1, state_dir=str(tmp_path / "s"))
        assert chaos.active() is None
        with chaos.active_config(config) as active:
            assert active == config
            assert chaos.active() == config
            assert (tmp_path / "s").is_dir()  # marker dir pre-created
        assert chaos.active() is None
        assert chaos.ENV_VAR not in os.environ

    def test_malformed_env_means_chaos_off(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, "{not json")
        assert chaos.active() is None


class TestMarkers:
    def test_claim_is_once_only(self, tmp_path):
        assert chaos._claim(str(tmp_path), "crash", "fp-a") is True
        assert chaos._claim(str(tmp_path), "crash", "fp-a") is False
        assert chaos._claim(str(tmp_path), "hang", "fp-a") is True
        assert chaos.fired_markers(tmp_path) == ["crash-fp-a", "hang-fp-a"]

    def test_maybe_inject_without_chaos_is_a_noop(self):
        chaos.maybe_inject("fp-whatever")  # must not raise or exit


class TestCorruptCache:
    @staticmethod
    def _populated(tmp_path, name):
        cache = tmp_path / name
        spec = ScenarioSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.6, 15.0),
            manager="static-big",
        )
        specs = list(spec.sweep(seed=[1, 2]))
        BatchRunner(cache_dir=cache).run(specs)
        return cache, specs

    def test_same_seed_same_damage(self, tmp_path):
        cache_a, _ = self._populated(tmp_path, "a")
        cache_b, _ = self._populated(tmp_path, "b")
        report_a = chaos.corrupt_cache(cache_a, seed=5)
        report_b = chaos.corrupt_cache(cache_b, seed=5)
        assert report_a.actions == report_b.actions
        assert report_a  # it did something

    def test_manifest_tail_truncated_and_body_scribbled(self, tmp_path):
        cache, _ = self._populated(tmp_path, "c")
        before = (cache / MANIFEST_NAME).stat().st_size
        report = chaos.corrupt_cache(cache, seed=0)
        after = (cache / MANIFEST_NAME).stat().st_size
        assert after < before
        assert any("truncated" in action for action in report.actions)
        assert any("scribbled" in action for action in report.actions)

    def test_corrupted_cache_recomputes_to_identical_results(
        self, tmp_path, monkeypatch
    ):
        """The end-to-end corruption property: damage the cache, rerun,
        get byte-identical outcomes (recomputed or still-valid), with
        the run completing normally."""
        cache, specs = self._populated(tmp_path, "d")
        golden = BatchRunner().run(specs)
        chaos.corrupt_cache(cache, seed=1)
        monkeypatch.setattr(batch, "MEMORY_MAX_ENTRIES", 0)
        runner = BatchRunner(cache_dir=cache)
        outcomes = runner.run(specs)
        assert len(outcomes) == len(golden)
        for left, right in zip(golden, outcomes):
            assert left.spec == right.spec
            assert left.result.observations == right.result.observations
        # The recovery run's appends are all reachable: nothing misses
        # and nothing is quarantined again.
        recovered = BatchRunner(cache_dir=cache)
        again = recovered.run(specs)
        assert recovered.cache_misses == 0
        assert recovered.disk.corrupt_entries == 0
        for left, right in zip(golden, again):
            assert left.result.observations == right.result.observations

    def test_missing_cache_dir_is_harmless(self, tmp_path):
        report = chaos.corrupt_cache(tmp_path / "nope", seed=0)
        assert not report
