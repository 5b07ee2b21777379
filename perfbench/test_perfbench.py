"""Tests of the benchmark itself: catalogue, inputs, checks and spans.

No test here asserts on a duration; timing only appears through
relations that hold whatever the clock reads.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import check, metrics, workloads
from perfbench.probes import LayerProbes, Tally
from perfbench.spans import Recorder

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TestCatalogue:
    def test_names_and_units_are_well_formed(self):
        names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
        names += list(metrics.WORKLOADS)
        assert all(NAME.match(name) for name in names), names
        assert len(set(names)) == len(names)
        units = [m.unit for m in metrics.END_TO_END + metrics.PER_LAYER]
        assert all(UNIT.match(unit) for unit in units)
        assert {m.better for m in metrics.END_TO_END + metrics.PER_LAYER} <= {
            "lower",
            "higher",
        }

    def test_every_layer_metric_names_its_end_to_end_metric_and_workload(self):
        end_to_end = {m.name for m in metrics.END_TO_END}
        for metric in metrics.PER_LAYER:
            assert metric.moves in end_to_end, metric.name
            assert metric.on, metric.name
            assert set(metric.on) <= set(metrics.WORKLOADS), metric.name

    def test_benchmark_json_matches_the_catalogue(self):
        assert set(BENCHMARK) == {
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        }
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(metrics.WORKLOADS)
        assert all(set(w) == {"name", "why"} for w in BENCHMARK["workloads"])
        assert [
            (m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
        ] == [(m.name, m.unit, m.better) for m in metrics.END_TO_END]
        assert [
            (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
        ] == [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
        bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
        assert all(0 < bound <= 0.25 for bound in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())
        assert BENCHMARK["command"][:2] == ["python3", "perfbench/run.py"]

    def test_tail_percentile_keeps_ten_samples_beyond_it(self):
        assert metrics.tail_percentile(340) == 95.0
        assert metrics.tail_percentile(96) == 75.0
        assert metrics.tail_percentile(5000) == 99.0
        for n in (20, 96, 340, 1000, 20000):
            assert n * (1 - metrics.tail_percentile(n) / 100) >= 10

    def test_percentile_interpolates(self):
        assert metrics.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert metrics.percentile([7.0], 95.0) == 7.0


class TestWorkloadInputs:
    def test_fleet_faults_document_is_deterministic_per_seed(self):
        for seed in (0, 1, 7, 42):
            first = workloads.fleet_faults_document(seed)
            assert first == workloads.fleet_faults_document(seed)
            assert json.loads(json.dumps(first)) == first
        assert workloads.fleet_faults_document(0) != workloads.fleet_faults_document(1)

    def test_fleet_faults_uses_every_correlated_clause(self):
        document = workloads.fleet_faults_document(3)
        kinds = {
            clause["kind"]
            for entry in document["scenarios"]
            for clause in entry["fleet"]["faults"]
        }
        assert kinds == {"rack-death", "cascading-straggler", "brownout-wave"}
        for entry in document["scenarios"]:
            fleet = entry["fleet"]
            assert fleet["manager"] == "hipster-in"
            assert len(fleet["topology"]) == workloads.FLEET_RACKS

    def test_rack_death_fleet_always_keeps_a_node(self):
        # Seed 7's first candidate loses every rack at once; the search
        # moves on to the next fleet seed instead.
        document = workloads.fleet_faults_document(7)
        assert workloads._keeps_a_node_alive(document["scenarios"][0])
        assert document["scenarios"][0]["fleet"]["seed"] != 1000 + 2 * 7

    def test_fleet_faults_pack_compiles(self):
        from repro.packs import compile_pack, parse_pack

        pack = compile_pack(parse_pack(workloads.fleet_faults_document(0)))
        assert [item.key for item in pack.items] == ["rack-death", "brownout-wave"]
        assert all(item.spec.n_nodes == workloads.FLEET_NODES for item in pack.items)


def _tiny_pack_render() -> str:
    """A real (cheap) pack render: a 4-node faulted fleet."""
    from repro.sim.batch import BatchRunner

    document = {
        "name": "tiny",
        "scenarios": [
            {
                "fleet": {
                    "n_nodes": 4,
                    "workload": "memcached",
                    "manager": "static-big",
                    "topology": {"rack-a": 2, "rack-b": 2},
                    "trace": {"kind": "constant", "level": 0.3, "duration_s": 6},
                    "seed": 5,
                    "faults": [
                        {"kind": "brownout-wave", "probability": 1.0,
                         "factor": 0.5, "duration_s": 2, "stagger_s": 1,
                         "earliest_s": 1, "latest_s": 2}
                    ],
                },
                "label": "tiny",
            }
        ],
    }
    with BatchRunner(jobs=1) as runner:
        return workloads.fleet_faults(document, runner)


class TestOutputCheck:
    def test_check_rejects_a_perturbed_render(self):
        render = _tiny_pack_render()
        expected = check.sha256(render)
        digit = re.search(r"\d", render).start()
        flipped = "1" if render[digit] != "1" else "2"
        perturbed = render[:digit] + flipped + render[digit + 1 :]
        assert check.mismatches([render, perturbed, render + " "], expected) == [1, 2]

    def test_recorded_digests_are_sha256(self):
        table = json.loads(check.DIGESTS_PATH.read_text())
        assert set(table) == {"paper-quick", "fleet-faults"}
        for digests in table.values():
            assert "0" in digests
            assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in digests.values())
        assert table["paper-quick"]["0"].startswith("5e959406a05c")


class TestSpans:
    def test_self_time_excludes_nested_children(self, tmp_path):
        rec = Recorder(tmp_path)

        def leaf():
            return sum(range(2000))

        inner = rec.wrap("queue", lambda: leaf() + leaf())
        outer = rec.wrap("queue", lambda: inner() + inner())
        top = rec.wrap("spec", lambda: outer(), keep=True, spec_id=lambda: "s1")
        top()
        # Same-layer nesting is one entry; self times add up to the
        # outermost frame's inclusive time.
        assert rec.entries("queue") == 1
        assert rec.entries("spec") == 1
        total = rec.self_s("queue") + rec.self_s("spec")
        assert total == pytest.approx(rec.inclusive_s("spec"), rel=1e-9, abs=1e-12)
        assert rec.self_s("queue") <= rec.inclusive_s("queue") + 1e-12
        assert len(rec.spans) == 1 and rec.spans[0][5] == "s1"

    def test_kept_spans_link_to_parents_and_share_the_spec_id(self, tmp_path):
        rec = Recorder(tmp_path)
        child = rec.wrap("cache", lambda key: key, keep=True)
        parent = rec.wrap("run", lambda: child("k"), keep=True, spec_id=lambda: "abc")
        parent()
        events = rec.chrome_trace()["traceEvents"]
        by_name = {event["name"]: event for event in events}
        assert by_name["cache"]["args"]["parent"] == by_name["run"]["args"]["span_id"]
        assert by_name["cache"]["args"]["spec"] == "abc"
        assert all(event["ph"] == "X" for event in events)
        json.dumps(rec.chrome_trace())

    def test_worker_spill_round_trips(self, tmp_path):
        worker = Recorder(tmp_path)
        worker.wrap("engine.spec", lambda: None, keep=True)()
        worker.count("engine.intervals", 30)
        worker.spill()
        parent = Recorder(tmp_path)
        assert parent.collect_workers() > 0
        assert parent.counts["engine.intervals"] == 30
        assert parent.entries("engine.spec") == 1
        assert len(parent.spans) == 1
        assert not list(tmp_path.glob("worker-*.jsonl"))

    def test_generator_frames_time_each_resumption(self, tmp_path):
        rec = Recorder(tmp_path)
        gen = rec.wrap_generator("pool.events", lambda: iter([1, 2, 3]))
        assert list(gen()) == [1, 2, 3]
        assert rec.entries("pool.events") == 4  # three items + exhaustion
        assert rec.counts["pool.events.wall_s"] >= rec.self_s("pool.events")


class TestProbes:
    def test_probes_restore_every_attribute(self, tmp_path):
        from repro.scenarios.spec import ScenarioSpec
        from repro.sim import batch, engine
        from repro.sim.queueing import DispatchQueue

        before = (
            ScenarioSpec.run,
            ScenarioSpec.fingerprint,
            DispatchQueue.run_interval,
            engine._epoch_cluster_power,
            batch.pickle,
            batch.BatchRunner.iter_run,
        )
        with Tally(), LayerProbes(Recorder(tmp_path)):
            assert ScenarioSpec.run is not before[0]
            assert batch.pickle is not before[4]
        after = (
            ScenarioSpec.run,
            ScenarioSpec.fingerprint,
            DispatchQueue.run_interval,
            engine._epoch_cluster_power,
            batch.pickle,
            batch.BatchRunner.iter_run,
        )
        assert all(a is b for a, b in zip(before, after))

    def test_traced_run_is_byte_identical_and_counts_the_engine(self, tmp_path):
        untraced = _tiny_pack_render()
        rec = Recorder(tmp_path)
        tally = Tally()
        with tally, LayerProbes(rec):
            traced = _tiny_pack_render()
        assert traced == untraced
        assert tally.requests == 4 and tally.failed == 0
        assert rec.entries("engine.spec") == 4
        assert rec.counts["engine.intervals"] == tally.intervals == 4 * 6
        scalar = rec.counts.get("engine.scalar_intervals", 0)
        epoch = rec.counts.get("engine.epoch_intervals", 0)
        assert scalar + epoch == 4 * 6
        assert rec.entries("fleet.expand") == 1


def test_preparation_runs_in_a_child_process():
    import os

    from perfbench.run import BenchError, _in_child

    assert _in_child(os.getpid) != os.getpid()
    with pytest.raises(BenchError, match="ValueError"):
        _in_child(int, "not a number")


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-quick",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
