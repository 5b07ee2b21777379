"""Scenario-pack DSL: parsing, compilation, determinism, execution.

The load-bearing properties: a pack document compiles to the same
frozen-spec fingerprints every time (and independently of entry
order), probabilistic fault clauses lower to identical schedules under
a fixed seed whether the pack runs serially or over a worker pool, and
every malformed document fails with a ``PackError`` whose path points
at the offending clause.
"""

from __future__ import annotations

import json
import textwrap

import pytest
import yaml

from repro.errors import PackError, ReproError
from repro.fleet.spec import FleetSpec
from repro.packs import (
    SEED_STRIDE,
    CompiledPack,
    compile_pack,
    load_pack,
    parse_pack,
    run_pack,
)
from repro.scenarios.spec import ScenarioSpec
from repro.sim.batch import BatchRunner


def doc(text: str) -> dict:
    return yaml.safe_load(textwrap.dedent(text))


SMALL_PACK = doc("""
    name: unit
    description: test pack
    scenarios:
      - family: edge-load
        params: {workload: memcached, duration_s: 30.0}
        sweep:
          level: [0.4, 0.8]
      - scenario:
          workload: memcached
          manager: static-big
          trace: {kind: mmpp, levels: [0.3, 1.0], mean_dwell_s: [20, 5],
                  duration_s: 40, seed: 5}
        label: burst
        weight: 2
      - fleet:
          n_nodes: 3
          workload: memcached
          manager: static-big
          balancer: round-robin
          trace: {kind: constant, level: 0.5, duration_s: 20}
          faults:
            - {kind: node-death, probability: 0.5, earliest_s: 5}
          seed: 2
        label: tiny-fleet
""")


class TestParsing:
    def test_round_trip_through_yaml_and_json(self, tmp_path):
        yaml_file = tmp_path / "pack.yaml"
        yaml_file.write_text(yaml.safe_dump(SMALL_PACK))
        json_file = tmp_path / "pack.json"
        json_file.write_text(json.dumps(SMALL_PACK))
        from_yaml = compile_pack(load_pack(yaml_file))
        from_json = compile_pack(load_pack(json_file))
        assert from_yaml.fingerprints() == from_json.fingerprints()
        assert [i.key for i in from_yaml.items] == [
            i.key for i in from_json.items
        ]

    def test_entry_needs_exactly_one_kind(self):
        bad = doc("""
            name: x
            scenarios:
              - family: edge-load
                scenario: {workload: memcached}
        """)
        with pytest.raises(PackError, match=r"scenarios\[0\].*exactly one"):
            parse_pack(bad)

    def test_unknown_top_key_suggests(self):
        with pytest.raises(PackError, match="did you mean 'scenarios'"):
            parse_pack({"name": "x", "scenarois": []})

    def test_unknown_entry_key_suggests(self):
        bad = doc("""
            name: x
            scenarios:
              - family: edge-load
                wieght: 2
        """)
        with pytest.raises(PackError, match="did you mean 'weight'"):
            parse_pack(bad)

    def test_weight_must_be_positive_int(self):
        for weight in (0, -1, 1.5, True, "2"):
            bad = {"name": "x", "scenarios": [
                {"family": "edge-load", "weight": weight}]}
            with pytest.raises(PackError, match=r"scenarios\[0\].weight"):
                parse_pack(bad)

    def test_params_rejected_on_inline_entries(self):
        bad = doc("""
            name: x
            scenarios:
              - scenario: {workload: memcached}
                params: {seed: 3}
        """)
        with pytest.raises(PackError, match="only applies to family"):
            parse_pack(bad)

    def test_empty_scenarios_rejected(self):
        with pytest.raises(PackError, match="must not be empty"):
            parse_pack({"name": "x", "scenarios": []})

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(PackError, match="cannot read pack"):
            load_pack(tmp_path / "missing.yaml")

    def test_invalid_yaml(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: [unclosed")
        with pytest.raises(PackError, match="invalid YAML"):
            load_pack(bad)


class TestCompilation:
    def test_deterministic_fingerprints(self):
        a = compile_pack(SMALL_PACK)
        b = compile_pack(SMALL_PACK)
        assert a.fingerprints() == b.fingerprints()

    def test_fingerprints_independent_of_entry_order(self):
        reordered = dict(SMALL_PACK)
        reordered["scenarios"] = list(reversed(SMALL_PACK["scenarios"]))
        assert sorted(compile_pack(SMALL_PACK).fingerprints()) == sorted(
            compile_pack(reordered).fingerprints()
        )

    def test_sweep_expands_cartesian_over_sorted_keys(self):
        pack = compile_pack(doc("""
            name: x
            scenarios:
              - family: edge-load
                params: {workload: memcached, duration_s: 30.0}
                sweep:
                  level: [0.4, 0.8]
                  seed: [1, 2]
        """))
        assert len(pack.items) == 4
        variants = [dict(item.variant) for item in pack.items]
        # level is the outer axis (sorted key order), seed the inner.
        assert variants == [
            {"level": 0.4, "seed": 1}, {"level": 0.4, "seed": 2},
            {"level": 0.8, "seed": 1}, {"level": 0.8, "seed": 2}]

    def test_weight_expands_to_strided_seed_replicas(self):
        pack = compile_pack(SMALL_PACK)
        burst = [i for i in pack.items if i.key.startswith("burst")]
        assert [i.replica for i in burst] == [0, 1]
        base = burst[0].spec.seed
        assert burst[1].spec.seed == base + SEED_STRIDE
        assert burst[0].spec.fingerprint() != burst[1].spec.fingerprint()

    def test_keys_are_unique(self):
        pack = compile_pack(SMALL_PACK)
        keys = [item.key for item in pack.items]
        assert len(set(keys)) == len(keys)

    def test_items_are_ordinary_specs(self):
        pack = compile_pack(SMALL_PACK)
        kinds = [type(item.spec) for item in pack.items]
        assert kinds.count(FleetSpec) == 1
        assert kinds.count(ScenarioSpec) == len(pack.items) - 1
        assert isinstance(pack, CompiledPack)

    def test_quick_override_applies_to_family_entries_only(self):
        pack_doc = doc("""
            name: x
            scenarios:
              - family: diurnal-policy
                params: {workload: memcached, manager: static-big}
              - scenario:
                  workload: memcached
                  manager: static-big
                  trace: {kind: constant, level: 0.5, duration_s: 25}
        """)
        full = compile_pack(pack_doc)
        quick = compile_pack(pack_doc, quick=True)
        assert (
            quick.items[0].spec.trace.build().duration_s
            < full.items[0].spec.trace.build().duration_s
        )
        # The inline entry spells its duration out; --quick leaves it.
        assert (
            quick.items[1].spec.fingerprint()
            == full.items[1].spec.fingerprint()
        )

    def test_unknown_family_error_carries_path_and_suggestion(self):
        bad = {"name": "x", "scenarios": [{"family": "edge-lod"}]}
        with pytest.raises(PackError, match=r"scenarios\[0\].*did you mean 'edge-load'"):
            compile_pack(bad)

    def test_unknown_family_param_error(self):
        bad = {"name": "x", "scenarios": [
            {"family": "edge-load",
             "params": {"workload": "memcached", "levl": 0.5}}]}
        with pytest.raises(PackError, match="did you mean 'level'"):
            compile_pack(bad)

    def test_unknown_trace_kind_error(self):
        bad = {"name": "x", "scenarios": [{"scenario": {
            "workload": "memcached", "manager": "static-big",
            "trace": {"kind": "diurnl", "duration_s": 30}}}]}
        with pytest.raises(
            PackError, match=r"trace\.kind.*did you mean 'diurnal'"
        ):
            compile_pack(bad)

    def test_unknown_inline_field_error(self):
        bad = {"name": "x", "scenarios": [{"scenario": {
            "workload": "memcached", "manger": "static-big",
            "trace": {"kind": "constant", "level": 0.5, "duration_s": 30}}}]}
        with pytest.raises(PackError, match="did you mean 'manager'"):
            compile_pack(bad)

    def test_pack_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            compile_pack({"name": "x", "scenarios": [{"family": "nope"}]})

    def test_validate_buildable_catches_bad_trace_params(self):
        bad = {"name": "x", "scenarios": [{"scenario": {
            "workload": "memcached", "manager": "static-big",
            "trace": {"kind": "constant", "level": 0.5, "duration_s": 30,
                      "wobble": 3}}}]}
        pack = compile_pack(bad)  # spec layer doesn't build the trace
        with pytest.raises(PackError):
            pack.validate_buildable()


MIXED_PACK = doc("""
    name: mixed
    scenarios:
      - scenario:
          workload: memcached
          manager: static-big
          trace: {kind: constant, level: 0.5, duration_s: 15}
        label: solo
      - fleet:
          n_nodes: 3
          workload: memcached
          manager: static-big
          trace: {kind: constant, level: 0.6, duration_s: 12}
          seed: 2
        label: fleet-a
      - fleet:
          n_nodes: 2
          workload: memcached
          manager: static-big
          trace: {kind: constant, level: 0.4, duration_s: 12}
          seed: 3
        label: fleet-b
""")


class TestExecution:
    def test_serial_and_parallel_runs_identical(self):
        """The pack's fault schedules and outcomes are fixed before any
        worker starts, so a worker pool cannot change the results."""
        serial = run_pack(compile_pack(SMALL_PACK))
        with BatchRunner(jobs=4) as runner:
            parallel = run_pack(compile_pack(SMALL_PACK), runner=runner)
        assert serial.rows() == parallel.rows()

    def test_outcomes_align_with_items(self):
        result = run_pack(compile_pack(SMALL_PACK))
        assert len(result.outcomes) == len(result.pack.items)
        rows = result.rows()
        assert [row[0] for row in rows] == [
            item.key for item in result.pack.items]
        for _, kind, qos, power, energy, status in rows:
            assert status == "ok"
            assert 0.0 <= qos <= 1.0
            assert power > 0.0 and energy > 0.0

    def test_fleet_rows_are_labelled(self):
        result = run_pack(compile_pack(SMALL_PACK))
        kinds = {key: kind for key, kind, *_ in result.rows()}
        assert kinds["tiny-fleet"] == "fleet(3)"
        assert kinds["burst"] == "scenario"

    def test_render_and_summary(self):
        result = run_pack(compile_pack(SMALL_PACK))
        rendered = result.render()
        assert "Pack -- unit" in rendered
        assert "tiny-fleet" in rendered
        summary = result.summary()
        assert summary["pack"] == "unit"
        assert len(summary["items"]) == len(result.pack.items)
        json.dumps(summary)  # JSON-ready

    def test_shipped_packs_all_compile(self):
        from pathlib import Path

        pack_dir = Path(__file__).resolve().parent.parent / "packs"
        files = sorted(pack_dir.glob("*.yaml"))
        assert len(files) >= 8
        for file in files:
            pack = compile_pack(load_pack(file))
            pack.validate_buildable()
            fingerprints = pack.fingerprints()
            assert len(set(fingerprints)) == len(fingerprints), file


class TestMixedDispatch:
    """A pack is one batch: one ``iter_run`` call, per-entry failure."""

    @pytest.fixture
    def dispatches(self, monkeypatch):
        """Counts ``BatchRunner.iter_run`` calls."""
        calls = []
        original = BatchRunner.iter_run

        def spy(runner, specs, *args, **kwargs):
            calls.append(len(specs))
            return original(runner, specs, *args, **kwargs)

        monkeypatch.setattr(BatchRunner, "iter_run", spy)
        return calls

    def test_whole_pack_is_one_dispatch(self, dispatches):
        with BatchRunner(jobs=2) as runner:
            result = run_pack(compile_pack(MIXED_PACK), runner=runner)
        assert dispatches == [1 + 3 + 2]
        assert [status for *_, status in result.rows()] == ["ok"] * 3
        assert runner.specs_dispatched == 6

    def test_poisoned_fleet_node_fails_only_its_fleet(self):
        from repro.errors import WorkerCrashError
        from repro.sim import chaos

        pack = compile_pack(MIXED_PACK)
        clean = run_pack(pack).rows()
        fleet_a = next(item for item in pack.items if item.key == "fleet-a")
        victim = fleet_a.spec.node_specs()[1].fingerprint()
        config = chaos.ChaosConfig(seed=0, poison_fingerprints=(victim,))
        with chaos.active_config(config):
            with BatchRunner(jobs=2) as runner:
                result = run_pack(pack, runner=runner)
        rows = {row[0]: row for row in result.rows()}
        assert rows["fleet-a"][5] == "failed: WorkerCrashError"
        ((key, error),) = result.failures()
        assert key == "fleet-a" and isinstance(error, WorkerCrashError)
        assert error.fingerprint == victim
        for row in clean:
            if row[0] != "fleet-a":
                assert rows[row[0]] == row
        assert runner.specs_failed == 1

    def test_fleet_run_raises_after_its_other_nodes_ran(self):
        from repro.errors import WorkerCrashError
        from repro.sim import chaos

        fleet = next(
            item.spec
            for item in compile_pack(MIXED_PACK).items
            if item.key == "fleet-a"
        )
        nodes = fleet.node_specs()
        victim = nodes[0].fingerprint()
        config = chaos.ChaosConfig(seed=0, poison_fingerprints=(victim,))
        with chaos.active_config(config):
            with BatchRunner(jobs=2) as runner:
                with pytest.raises(WorkerCrashError):
                    fleet.run(runner)
                dispatched = runner.specs_dispatched
                runner.run(nodes[1:])  # already computed: memory hits
        assert dispatched == len(nodes)
        assert runner.specs_dispatched == dispatched
        assert runner.memory_hits == len(nodes) - 1
