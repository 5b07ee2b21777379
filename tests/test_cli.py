"""CLI argument validation: every parser.error path, plus fleet smoke.

``parser.error`` exits with status 2; these tests pin that contract for
the flag combinations the CLI rejects instead of silently ignoring.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main, render_stats
from repro.sim.batch import BatchRunner


def error_message(capsys) -> str:
    """The argparse error text of the call that just exited."""
    return capsys.readouterr().err


def test_parser_builds_and_lists_fleet():
    parser = build_parser()
    help_text = parser.format_help()
    assert "fleet" in help_text
    assert "--nodes" in help_text and "--balancer" in help_text


class TestRejections:
    def test_jobs_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 1" in error_message(capsys)

    def test_jobs_negative_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--jobs", "-3"])
        assert excinfo.value.code == 2

    def test_workload_on_agnostic_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--workload", "memcached"])
        assert excinfo.value.code == 2
        assert "--workload only applies" in error_message(capsys)

    def test_nodes_on_non_fleet_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--nodes", "4"])
        assert excinfo.value.code == 2
        assert "--nodes only applies to 'fleet'" in error_message(capsys)

    def test_balancer_on_non_fleet_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig2", "--balancer", "power-aware"])
        assert excinfo.value.code == 2
        assert "--balancer only applies to 'fleet'" in error_message(capsys)

    def test_fleet_rejects_nonpositive_nodes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--nodes", "0"])
        assert excinfo.value.code == 2
        assert "--nodes must be >= 1" in error_message(capsys)

    def test_fleet_rejects_unknown_balancer(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--balancer", "coin-flip"])
        assert excinfo.value.code == 2  # argparse choices

    def test_cache_dir_must_be_directory(self, tmp_path, capsys):
        clash = tmp_path / "not-a-dir"
        clash.write_text("occupied")
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--cache-dir", str(clash)])
        assert excinfo.value.code == 2
        assert "not a directory" in error_message(capsys)

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig99"])
        assert excinfo.value.code == 2

    def test_output_on_non_bench_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--output", "somewhere.json"])
        assert excinfo.value.code == 2
        assert "--output only applies to 'pack run'" in error_message(capsys)


class TestStatsSummary:
    """Formatting of the stderr cache/pool/wall summary lines."""

    def runner_with(self, tmp_path, **counters) -> BatchRunner:
        runner = BatchRunner(jobs=4, cache_dir=tmp_path)
        for name, value in counters.items():
            setattr(runner, name, value)
        return runner

    def test_cache_line_breaks_hits_down_by_tier(self, tmp_path):
        runner = self.runner_with(
            tmp_path, cache_hits=184, memory_hits=120, disk_hits=64,
            cache_misses=340,
        )
        (cache_line,) = render_stats(runner)
        assert cache_line == (
            f"[cache] 184 hit(s) (120 memory, 64 disk), "
            f"340 miss(es), corrupt=0 in {tmp_path}"
        )

    def test_pool_line_reports_dispatch_shape(self, tmp_path):
        runner = self.runner_with(
            tmp_path, cache_hits=5, pool_spawns=1, specs_dispatched=340,
            chunks_dispatched=83,
        )
        lines = render_stats(runner)
        assert lines[1] == (
            "[pool] 4 worker(s) (spawned 1 pool(s)), 340 spec(s) "
            "dispatched in 83 chunk(s), 5 served from cache"
        )

    def test_wall_line_lists_experiments_and_total(self, tmp_path):
        runner = self.runner_with(tmp_path)
        lines = render_stats(runner, [("fig1", 0.5), ("table3", 1.25)])
        assert lines[-1] == "[wall] fig1 0.50s | table3 1.25s | total 1.75s"

    def test_no_lines_for_plain_serial_uncached_runner(self):
        assert render_stats(BatchRunner()) == []

    def test_no_pool_line_before_any_spawn(self, tmp_path):
        lines = render_stats(self.runner_with(tmp_path))
        assert len(lines) == 1 and lines[0].startswith("[cache]")


class TestFleetFlagsAccepted:
    def test_fleet_accepts_nodes_balancer_and_workload(self):
        """The fleet flags parse cleanly (validation only fires in main)."""
        args = build_parser().parse_args(
            ["fleet", "--nodes", "16", "--balancer", "least-loaded",
             "--workload", "websearch", "--quick"]
        )
        assert args.nodes == 16
        assert args.balancer == "least-loaded"
        assert args.workload == "websearch"

    @pytest.mark.slow
    def test_fleet_smoke(self, capsys):
        """End-to-end: a small quick fleet prints the cluster report."""
        assert main(["fleet", "--quick", "--nodes", "2", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fleet --" in out
        assert "tail-of-tails" in out


class TestPackSubcommand:
    def write_pack(self, tmp_path):
        file = tmp_path / "smoke.yaml"
        file.write_text(
            "name: cli-smoke\n"
            "scenarios:\n"
            "  - family: edge-load\n"
            "    params: {workload: memcached, level: 0.5, duration_s: 20}\n"
        )
        return file

    def test_pack_requires_an_action(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pack"])
        assert excinfo.value.code == 2
        assert "needs an action" in error_message(capsys)

    def test_unknown_action_suggests(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pack", "validat"])
        assert excinfo.value.code == 2
        assert "did you mean 'validate'" in error_message(capsys)

    def test_validate_reports_bad_pack_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "name: broken\n"
            "scenarios:\n"
            "  - family: edge-lod\n"
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["pack", "validate", str(bad)])
        assert excinfo.value.code == 2
        err = error_message(capsys)
        assert "scenarios[0]" in err
        assert "did you mean 'edge-load'" in err

    def test_validate_ok(self, tmp_path, capsys):
        file = self.write_pack(tmp_path)
        assert main(["pack", "validate", str(file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_list_shows_pack_table(self, tmp_path, capsys):
        file = self.write_pack(tmp_path)
        assert main(["pack", "list", str(file)]) == 0
        out = capsys.readouterr().out
        assert "cli-smoke" in out

    def test_missing_file_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pack", "validate", "no-such-pack.yaml"])
        assert excinfo.value.code == 2
        assert "no-such-pack.yaml" in error_message(capsys)

    def test_pack_args_rejected_on_other_commands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "extra-arg"])
        assert excinfo.value.code == 2
        assert "pack arguments" in error_message(capsys)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--output", "x.json"],
            ["--strict"],
            ["--jobs", "3"],
            ["--cache-dir", "cache"],
            ["--cache-dir", "cache", "--resume"],
        ],
        ids=["output", "strict", "jobs", "cache-dir", "resume"],
    )
    @pytest.mark.parametrize("action", ["validate", "list"])
    def test_non_run_actions_reject_run_only_flags(
        self, action, flags, tmp_path, monkeypatch, capsys
    ):
        """Only ``pack run`` runs scenarios or writes a summary; the
        other actions reject the flags they would silently ignore."""
        monkeypatch.chdir(tmp_path)
        file = self.write_pack(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["pack", action, str(file), *flags])
        assert excinfo.value.code == 2
        assert f"'pack {action}' ignores it" in error_message(capsys)
        assert list(tmp_path.iterdir()) == [file]

    def test_quick_applies_to_every_action(self, tmp_path, capsys):
        file = self.write_pack(tmp_path)
        assert main(["pack", "validate", str(file), "--quick"]) == 0
        assert main(["pack", "list", str(file), "--quick"]) == 0
        assert "cli-smoke" in capsys.readouterr().out

    def test_workload_flag_rejected_for_pack(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pack", "validate", "--workload", "memcached"])
        assert excinfo.value.code == 2
        assert "--workload" in error_message(capsys)

    @pytest.mark.slow
    def test_pack_run_writes_summary(self, tmp_path, capsys):
        file = self.write_pack(tmp_path)
        out_file = tmp_path / "summary.json"
        assert main(
            ["pack", "run", str(file), "--output", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "Pack -- cli-smoke" in out
        import json

        summary = json.loads(out_file.read_text())
        assert summary["pack"] == "cli-smoke"
        assert len(summary["items"]) == 1
