"""Tests for the declarative scenario layer (specs, registry, factories)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.loadgen.diurnal import DiurnalTrace
from repro.loadgen.traces import ConcatTrace, ConstantTrace, RampTrace
from repro.scenarios import (
    DEFAULT_REGISTRY,
    ScenarioRegistry,
    ScenarioSpec,
    TraceSpec,
)
from repro.scenarios.registry import (
    STANDARD_POLICIES,
    standard_policy_specs,
)
from repro.scenarios.spec import freeze_params, thaw_params


def quick_spec(**overrides) -> ScenarioSpec:
    base = dict(
        workload="memcached",
        trace=TraceSpec.constant(0.5, 20.0),
        manager="static-big",
        seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestParams:
    def test_freeze_sorts_and_normalizes(self):
        frozen = freeze_params({"b": 2, "a": {"y": 1, "x": [1, 2]}})
        assert frozen == (("a", (("x", (1, 2)), ("y", 1))), ("b", 2))
        assert thaw_params(frozen)["b"] == 2

    def test_freeze_rejects_non_plain_data(self):
        with pytest.raises(TypeError, match="plain data"):
            freeze_params({"rng": np.random.default_rng(0)})

    @pytest.mark.parametrize(
        "value, type_name",
        [
            ({1, 2}, "set"),
            (object(), "object"),
            (np.array([0.1, 0.2]), "ndarray"),
            ([0.5, {"inner": {3}}], "set"),
        ],
    )
    def test_freeze_names_the_rejected_type(self, value, type_name):
        with pytest.raises(TypeError, match=f"plain data, got {type_name}: "):
            freeze_params({"bad": value})

    def test_freeze_mappings_nested_in_lists(self):
        frozen = freeze_params({"a": [{"y": 1, "x": 2.5}, (3, [None, "s"])]})
        assert frozen == (("a", ((("x", 2.5), ("y", 1)), (3, (None, "s")))),)

    def test_freeze_scalar_sequences(self):
        frozen = freeze_params({"a": [1, 2.5, True, None, "s"], "b": (0.5,)})
        assert frozen == (("a", (1, 2.5, True, None, "s")), ("b", (0.5,)))
        assert type(frozen[0][1]) is tuple
        levels = tuple(np.array([0.1, 0.2]))  # float subclasses recurse
        assert freeze_params({"levels": levels}) == (("levels", levels),)

    def test_freeze_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            freeze_params([("a", 1), ("a", 2)])


class TestTraceSpec:
    def test_builds_each_kind(self):
        assert isinstance(TraceSpec.diurnal(400.0).build(), DiurnalTrace)
        assert isinstance(TraceSpec.constant(0.5, 10.0).build(), ConstantTrace)
        assert isinstance(TraceSpec.ramp(0.5, 1.0, 100.0).build(), RampTrace)

    def test_concat_round_trip(self):
        spec = TraceSpec.concat(
            TraceSpec.diurnal(100.0, seed=7), TraceSpec.ramp(0.5, 1.0, 50.0)
        )
        trace = spec.build()
        assert isinstance(trace, ConcatTrace)
        assert trace.duration_s == pytest.approx(150.0)

    def test_concat_requires_parts(self):
        with pytest.raises(ValueError, match="at least one part"):
            TraceSpec("concat")

    def test_unknown_kind_fails_at_build(self):
        with pytest.raises(KeyError, match="trace kind"):
            TraceSpec("sinusoid", {"duration_s": 5.0}).build()


class TestScenarioSpec:
    def test_rejects_unknown_keys_eagerly(self):
        with pytest.raises(KeyError, match="workload"):
            quick_spec(workload="redis")
        with pytest.raises(KeyError, match="manager"):
            quick_spec(manager="round-robin")
        with pytest.raises(KeyError, match="batch job set"):
            quick_spec(batch_jobs="npb:ft")

    def test_specs_are_picklable_and_comparable(self):
        spec = quick_spec(manager_params={"collocate_batch": False})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_fingerprint_sensitivity(self):
        spec = quick_spec()
        assert spec.fingerprint() == quick_spec().fingerprint()
        assert spec.fingerprint() != quick_spec(seed=8).fingerprint()
        assert (
            spec.fingerprint()
            != quick_spec(trace=TraceSpec.constant(0.6, 20.0)).fingerprint()
        )
        assert spec.fingerprint() != quick_spec(manager="static-small").fingerprint()

    def test_float_runs_key_by_their_bytes(self):
        """An all-float tuple (sampled levels, here) is keyed by its
        length and float64 bytes: however the floats arrive they key
        the same, and any bit of difference keys differently."""
        levels = [0.25, 0.5, 0.0, 1.0 / 3.0, 0.75]

        def sampled(values) -> str:
            trace = TraceSpec("sampled", {"levels": values, "interval_s": 1.0})
            return quick_spec(trace=trace).fingerprint()

        key = sampled(tuple(levels))
        assert sampled(list(levels)) == key
        assert sampled(tuple(np.array(levels))) == key  # np.float64 items
        assert (
            quick_spec(trace=TraceSpec.sampled(np.array(levels))).fingerprint() == key
        )
        one_ulp = list(levels)
        one_ulp[3] = float(np.nextafter(levels[3], 1.0))
        assert sampled(one_ulp) != key
        negative_zero = list(levels)
        negative_zero[2] = -0.0
        assert sampled(negative_zero) != key
        # Same values as ints (not floats) are a different parameter.
        assert sampled([1.0, 2.0]) != sampled([1, 2])
        # Length is part of the key: a run split differently differs.
        assert sampled(levels[:4]) != key

    def test_float_run_keys_cover_nested_traces(self):
        part = TraceSpec.sampled([0.1, 0.2, 0.3])
        other = TraceSpec.sampled([0.1, 0.2, 0.30000000000000004])
        ramp = TraceSpec.ramp(0.1, 0.5, 10.0)
        assert (
            quick_spec(trace=TraceSpec.concat(ramp, part)).fingerprint()
            != quick_spec(trace=TraceSpec.concat(ramp, other)).fingerprint()
        )
        assert (
            quick_spec(trace=TraceSpec.concat(part, ramp)).fingerprint()
            != quick_spec(trace=TraceSpec.concat(ramp, part)).fingerprint()
        )

    def test_label_does_not_affect_fingerprint(self):
        assert (
            quick_spec(label="a").fingerprint() == quick_spec(label="b").fingerprint()
        )

    def test_fingerprint_memo_is_invisible(self, monkeypatch):
        import gc

        from repro.scenarios import spec as spec_module

        spec = quick_spec()
        pickled = pickle.dumps(spec)
        key = spec.fingerprint()
        # Served from the memo, equal to a fresh equal spec's key, and
        # the pickled spec (the cached payload's) is byte-identical.
        assert spec.fingerprint() == key == quick_spec().fingerprint()
        assert pickle.dumps(spec) == pickled
        # A format-version change recomputes instead of serving the memo.
        monkeypatch.setattr(spec_module, "KERNEL_VERSION", "kernel-test")
        bumped = spec.fingerprint()
        assert bumped != key
        assert bumped.startswith(spec_module.cache_key_prefix())
        assert bumped == quick_spec().fingerprint()
        # The entry leaves the memo with its spec.
        ident = id(spec)
        assert ident in spec_module._FINGERPRINTS
        del spec
        gc.collect()
        assert ident not in spec_module._FINGERPRINTS

    def test_sweep_expands_cartesian_product(self):
        specs = quick_spec().sweep(
            seed=[1, 2, 3], manager=["static-big", "static-small"]
        )
        assert len(specs) == 6
        assert len({s.fingerprint() for s in specs}) == 6
        assert {s.seed for s in specs} == {1, 2, 3}

    def test_sweep_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            quick_spec().sweep(duration=[1, 2])

    def test_run_is_deterministic(self):
        spec = quick_spec()
        a = spec.run()
        b = spec.run()
        assert a.result.observations == b.result.observations

    def test_workload_params_override(self):
        light = quick_spec(workload_params={"demand_mean_ms": 0.01}).run().result
        heavy = quick_spec(workload_params={"demand_mean_ms": 0.05}).run().result
        assert float(np.mean(heavy.tails_ms)) > float(np.mean(light.tails_ms))

    def test_engine_overrides_reach_the_engine(self):
        spec = quick_spec(engine={"interval_s": 2.0})
        result = spec.run().result
        assert result.interval_s == 2.0

    def test_nan_engine_override_rejected(self):
        """A NaN backlog bound would silently never shed."""
        spec = quick_spec(engine={"max_backlog_s": float("nan")})
        with pytest.raises(ValueError, match="max_backlog_s must be finite"):
            spec.run()

    def test_zero_n_intervals_rejected(self):
        """0 used to fall through to the whole trace under its own key."""
        with pytest.raises(ValueError, match="n_intervals"):
            quick_spec(n_intervals=0)

    def test_fractional_n_intervals_rejected(self):
        with pytest.raises(ValueError, match="n_intervals"):
            quick_spec(n_intervals=2.5)

    @pytest.mark.parametrize("bad", [-3, True, "5", 5.0])
    def test_other_non_positive_int_n_intervals_rejected(self, bad):
        with pytest.raises(ValueError, match="n_intervals"):
            quick_spec(n_intervals=bad)

    def test_valid_n_intervals_run_and_keep_their_key(self):
        capped = quick_spec(n_intervals=5)
        assert len(capped.run().result) == 5
        assert capped.fingerprint() != quick_spec().fingerprint()
        assert capped.fingerprint() == quick_spec(n_intervals=5).fingerprint()

    def test_manager_stats_carry_phase_switches(self):
        spec = quick_spec(
            manager="hipster-in", manager_params={"learning_duration_s": 5.0}
        )
        outcome = spec.run()
        assert outcome.stat("phase_switches") is not None
        assert outcome.stat("nonexistent", -1) == -1


class TestRegistry:
    def test_default_registry_families(self):
        for family in (
            "diurnal-policy",
            "steady-config",
            "edge-load",
            "load-ramp",
            "collocation",
        ):
            assert family in DEFAULT_REGISTRY

    def test_unknown_family(self):
        with pytest.raises(KeyError, match="unknown scenario family"):
            DEFAULT_REGISTRY.build("nope")

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register("x", lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", lambda: None)

    def test_diurnal_policy_durations(self):
        quick = DEFAULT_REGISTRY.build(
            "diurnal-policy", workload="memcached", manager="static-big", quick=True
        )
        full = DEFAULT_REGISTRY.build(
            "diurnal-policy", workload="memcached", manager="static-big"
        )
        assert thaw_params(quick.trace.params)["duration_s"] == 420.0
        assert thaw_params(full.trace.params)["duration_s"] == 1400.0

    def test_learning_phase_filled_for_hipster_only(self):
        hipster = DEFAULT_REGISTRY.build(
            "diurnal-policy", workload="memcached", manager="hipster-in", quick=True
        )
        octopus = DEFAULT_REGISTRY.build(
            "diurnal-policy", workload="memcached", manager="octopus-man", quick=True
        )
        assert thaw_params(hipster.manager_params)["learning_duration_s"] == 150.0
        assert octopus.manager_params == ()

    def test_collocation_names_batch_jobs(self):
        spec = DEFAULT_REGISTRY.build(
            "collocation", manager="hipster-co", program="lbm", quick=True
        )
        assert spec.batch_jobs == "spec:lbm"
        assert spec.workload == "websearch"

    def test_standard_policy_specs_line_up(self):
        specs = standard_policy_specs("websearch", quick=True)
        assert tuple(specs) == STANDARD_POLICIES
        assert all(s.workload == "websearch" for s in specs.values())
