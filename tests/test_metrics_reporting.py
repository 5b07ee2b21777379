"""Tests for run summaries, reporting and the CLI plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.reporting import ascii_table, series_block, sparkline
from repro.experiments.table3_summary import summarize
from repro.loadgen.traces import ConstantTrace
from repro.policies.static import static_all_big, static_all_small
from repro.sim.engine import run_experiment
from repro.workloads.websearch import websearch


@pytest.fixture(scope="module")
def sample_runs(platform):
    trace = ConstantTrace(0.5, 20)
    big = run_experiment(platform, websearch(), trace, static_all_big(platform), seed=3)
    small = run_experiment(
        platform, websearch(), trace, static_all_small(platform), seed=3
    )
    return big, small


@pytest.fixture(scope="session")
def platform():
    from repro.hardware.juno import juno_r1

    return juno_r1()


class TestMetrics:
    def test_guarantee_and_violations_sum_to_100(self, sample_runs):
        big, _ = sample_runs
        violated = int(np.sum(big.tails_ms > big.target_latency_ms))
        guarantee_pct = big.qos_guarantee() * 100.0
        violations_pct = violated / len(big) * 100.0
        assert guarantee_pct + violations_pct == pytest.approx(100.0)

    def test_energy_reduction_antisymmetry(self, sample_runs):
        big, small = sample_runs
        assert small.energy_reduction_vs(big) > 0
        assert big.energy_reduction_vs(small) < 0
        assert small.total_energy_j() / big.total_energy_j() < 1.0
        assert big.energy_reduction_vs(big) == pytest.approx(0.0)

    def test_summary_render(self, sample_runs):
        big, small = sample_runs
        summary = summarize(small, big)
        text = summary.render()
        assert "static-small" in text
        assert "QoS" in text


class TestReporting:
    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[1:2])) == 1

    def test_sparkline_width(self):
        assert len(sparkline([1, 2, 3], width=40)) == 40
        assert sparkline([]) == ""

    def test_sparkline_flat_series(self):
        line = sparkline([5.0] * 10, width=10)
        assert line == " " * 10

    def test_series_block_annotations(self):
        block = series_block("power", [1.0, 2.0], unit="W")
        assert "min=1" in block and "max=2" in block


class TestCli:
    def test_parser_accepts_known_experiments(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["fig2", "--workload", "websearch", "--quick"])
        assert args.experiment == "fig2"
        assert args.workload == "websearch"
        assert args.quick is True

    def test_parser_rejects_unknown(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig4"])

    def test_table2_end_to_end(self, capsys):
        from repro.cli import main

        assert main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Cortex-A57" in out
