"""The stable facade: ``repro.api`` is the supported public surface."""

from __future__ import annotations

import pytest

import repro
import repro.api as api
from repro.api import open_runner, run_pack, run_scenario, sweep
from repro.errors import ReproError, UnknownNameError, UnknownParamError
from repro.fleet.aggregate import FleetOutcome
from repro.fleet.spec import FleetSpec
from repro.scenarios.spec import ScenarioOutcome, ScenarioSpec, TraceSpec


class TestRunScenario:
    def test_family_name_builds_and_runs(self):
        outcome = run_scenario(
            "edge-load", workload="memcached", level=0.6, duration_s=30.0
        )
        assert isinstance(outcome, ScenarioOutcome)
        assert 0.0 <= outcome.result.qos_guarantee() <= 1.0

    def test_explicit_spec_runs_as_is(self):
        spec = ScenarioSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.5, 30.0),
            manager="static-big",
        )
        outcome = run_scenario(spec)
        assert outcome.spec is spec

    def test_explicit_spec_rejects_params(self):
        spec = ScenarioSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.5, 30.0),
            manager="static-big",
        )
        with pytest.raises(TypeError, match="family name"):
            run_scenario(spec, seed=3)

    def test_fleet_spec_returns_fleet_outcome(self):
        spec = FleetSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.5, 20.0),
            manager="static-big",
            n_nodes=2,
            balancer="round-robin",
        )
        outcome = run_scenario(spec)
        assert isinstance(outcome, FleetOutcome)
        assert outcome.n_nodes == 2

    def test_fleet_family_through_facade(self):
        outcome = run_scenario(
            "fleet-ramp", workload="memcached", n_nodes=2,
            warmup_s=10.0, ramp_s=20.0, hold_s=10.0,
        )
        assert isinstance(outcome, FleetOutcome)

    def test_shared_runner_is_left_open(self):
        with open_runner() as runner:
            first = run_scenario(
                "edge-load", workload="memcached", level=0.5,
                duration_s=30.0, runner=runner,
            )
            second = run_scenario(
                "edge-load", workload="memcached", level=0.5,
                duration_s=30.0, runner=runner,
            )
        assert first.result.qos_guarantee() == second.result.qos_guarantee()


class TestErrors:
    def test_unknown_family_suggests(self):
        with pytest.raises(UnknownNameError, match="did you mean 'edge-load'"):
            run_scenario("edge-lod", workload="memcached")

    def test_unknown_param_suggests(self):
        with pytest.raises(UnknownParamError, match="did you mean 'level'"):
            run_scenario("edge-load", workload="memcached", levl=0.5)

    def test_errors_catchable_as_repro_error(self):
        with pytest.raises(ReproError):
            run_scenario("no-such-family")
        with pytest.raises(ReproError):
            run_scenario("edge-load", workload="memcached", bogus=1)

    def test_errors_still_catchable_as_builtins(self):
        """Old call sites caught KeyError/TypeError; both still work."""
        with pytest.raises(KeyError):
            run_scenario("no-such-family")
        with pytest.raises(TypeError):
            run_scenario("edge-load", workload="memcached", bogus=1)


class TestSweep:
    def test_grid_order_is_sorted_cartesian(self):
        results = sweep(
            "edge-load",
            {"seed": [1, 2], "level": [0.4, 0.8]},
            workload="memcached",
            duration_s=30.0,
        )
        assert [a for a, _ in results] == [
            {"level": 0.4, "seed": 1}, {"level": 0.4, "seed": 2},
            {"level": 0.8, "seed": 1}, {"level": 0.8, "seed": 2}]
        for _, outcome in results:
            assert isinstance(outcome, ScenarioOutcome)

    def test_assignment_reaches_the_spec(self):
        results = sweep(
            "edge-load", {"seed": [11, 12]},
            workload="memcached", level=0.5, duration_s=30.0,
        )
        assert [outcome.spec.seed for _, outcome in results] == [11, 12]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep("edge-load", {"level": []}, workload="memcached")

    def test_shared_runner(self):
        with open_runner(jobs=2) as runner:
            results = sweep(
                "edge-load", {"level": [0.3, 0.9]},
                workload="memcached", duration_s=30.0, runner=runner,
            )
        assert len(results) == 2


class TestRunPackFacade:
    def test_run_pack_accepts_a_document(self):
        result = run_pack({
            "name": "inline",
            "scenarios": [{
                "scenario": {
                    "workload": "memcached", "manager": "static-big",
                    "trace": {"kind": "constant", "level": 0.5,
                              "duration_s": 20}}}],
        })
        assert result.summary()["pack"] == "inline"

    def test_run_pack_accepts_a_path(self, tmp_path):
        file = tmp_path / "p.yaml"
        file.write_text(
            "name: from-file\n"
            "scenarios:\n"
            "  - family: edge-load\n"
            "    params: {workload: memcached, level: 0.5, duration_s: 20}\n"
        )
        result = run_pack(file)
        assert result.summary()["pack"] == "from-file"
        assert result.summary()["source"].endswith("p.yaml")


#: A small resilient pack: one two-rack fleet with a detected rack death.
RESILIENT_PACK = {
    "name": "warm-path",
    "scenarios": [{
        "fleet": {
            "workload": "memcached", "manager": "static-big", "n_nodes": 4,
            "balancer": "least-loaded", "seed": 3,
            "topology": {"rackA": 2, "rackB": 2},
            "trace": {"kind": "diurnal", "duration_s": 60, "seed": 4},
            "faults": [{
                "kind": "rack-death", "probability": 0.5,
                "earliest_s": 10, "latest_s": 30,
                "detection_s": 4, "repair_s": 15,
            }],
        },
    }],
}


class TestWarmPath:
    @staticmethod
    def renders(runner) -> tuple[str, ...]:
        from repro.experiments import EXPERIMENTS

        return (
            EXPERIMENTS["fig5"].run("memcached", quick=True, runner=runner).render(),
            EXPERIMENTS["fig6"].run(quick=True, runner=runner).render(),
            run_pack(RESILIENT_PACK, runner=runner).render(),
        )

    def test_warm_renders_match_cold_byte_for_byte(self, tmp_path):
        with open_runner(cache_dir=tmp_path) as cold:
            cold_renders = self.renders(cold)
        assert cold.cache_misses > 0
        with open_runner(cache_dir=tmp_path) as warm:
            warm_renders = self.renders(warm)
        assert warm.cache_misses == 0
        assert warm.disk_hits > 0
        assert warm_renders == cold_renders
        assert "blast radius" in warm_renders[2]


class TestSurface:
    def test_facade_all_exports_exist(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_package_root_re_exports_the_facade(self):
        for name in ("run_scenario", "run_pack", "sweep", "open_runner",
                     "ReproError", "PackError"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None
