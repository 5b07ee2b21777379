"""Tests for run summaries, reporting and the CLI plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.reporting import ascii_table, series_block, sparkline
from repro.experiments.table3_summary import summarize
from repro.fleet.aggregate import FleetAccumulator, NodeReduction
from repro.fleet.spec import FleetSpec
from repro.loadgen.traces import ConstantTrace
from repro.policies.static import static_all_big, static_all_small
from repro.scenarios import ScenarioSpec, TraceSpec
from repro.scenarios.spec import ScenarioOutcome
from repro.sim.engine import run_experiment
from repro.sim.latency import column_mean, qos_guarantee
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

    def test_summary_fields(self, sample_runs):
        big, small = sample_runs
        summary = summarize(small, big)
        assert (summary.policy, summary.workload) == ("static-small", "websearch")
        assert summary.qos_guarantee_pct == small.qos_guarantee() * 100.0
        assert summary.energy_reduction_pct == small.energy_reduction_vs(big) * 100.0
        assert summary.mean_power_w == small.mean_power_w()


def _mean_inputs():
    rng = np.random.default_rng(7)
    return {
        "random": rng.lognormal(0.0, 1.5, 1001),
        "all-equal": np.full(37, 0.1),
        "single": np.array([3.7]),
        "tiny-and-huge": np.array([1e-300, 1e300, -1e300, 2.5] * 9),
    }


class TestRawReductions:
    """The summary metrics skip np.mean's dispatch, not its arithmetic."""

    @pytest.mark.parametrize("name", sorted(_mean_inputs()))
    def test_column_mean_is_np_mean(self, name):
        values = _mean_inputs()[name]
        got, want = column_mean(values), float(np.mean(values))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize(
        "tails",
        [
            np.random.default_rng(3).uniform(0.0, 2.0, 999),
            np.full(8, 0.5),  # all met
            np.full(8, 5.0),  # none met
            np.array([1.0]),
            np.array([2.0]),
            np.array([0.5, 1.5, 1.0]),  # equal to the target counts as met
        ],
    )
    def test_qos_guarantee_is_mean_of_mask(self, tails):
        got = qos_guarantee(tails, 1.0)
        want = float(np.mean(tails <= 1.0))
        assert type(got) is float and got == want
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_result_metrics_are_np_mean(self, sample_runs):
        big, small = sample_runs
        for result in (big, small):
            assert result.mean_power_w() == float(np.mean(result.powers_w))
            assert result.mean_utilization() == float(
                np.mean(result.table.column("mean_utilization"))
            )
            assert result.qos_guarantee() == float(
                np.mean(result.tails_ms <= result.target_latency_ms)
            )

    def test_fleet_fold_is_np_mean(self, sample_runs):
        big, small = sample_runs
        trace = TraceSpec.constant(0.5, 20.0)
        spec = ScenarioSpec(workload="websearch", trace=trace, manager="static-big")
        fleet = FleetSpec(
            workload="websearch", trace=trace, manager="static-big", n_nodes=2
        )
        outcomes = [ScenarioOutcome(spec=spec, result=r) for r in (big, small)]
        node = NodeReduction.from_outcome(1, outcomes[1])
        assert node.mean_load == float(np.mean(small.loads))
        assert node.mean_power_w == float(np.mean(small.powers_w))
        assert node.mean_utilization == small.mean_utilization()
        assert node.qos_guarantee == small.qos_guarantee()
        assert node.peak_tail_ratio == float(
            np.max(small.tails_ms) / small.target_latency_ms
        )
        accumulator = FleetAccumulator(fleet)
        for index, outcome in enumerate(outcomes):
            accumulator.add(index, outcome)
        fleet_outcome = accumulator.finish()
        assert fleet_outcome.fleet_qos_guarantee() == float(
            np.mean(fleet_outcome.fleet_tails <= fleet_outcome.target_latency_ms)
        )


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
