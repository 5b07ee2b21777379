"""Integration tests: each experiment module reproduces its paper shape.

These run the quick (compressed) settings; the assertions target the
*direction and rough magnitude* of each paper claim, not exact numbers
(our substrate is a simulator, not the authors' Juno board).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import (
    fig01_diurnal_power,
    fig02_efficiency,
    fig05_heuristic_traces,
    fig06_hipsterin_memcached,
    fig07_hipsterin_websearch,
    fig08_load_ramp,
    fig09_learning_time,
    fig10_bucket_size,
    fig11_collocation,
    fleet_scale,
    table1_workloads,
    table2_characterization,
    table3_summary,
)


@pytest.mark.slow
class TestFig1:
    def test_power_floor_high_despite_load_swings(self):
        result = fig01_diurnal_power.run(quick=True)
        lo, hi = result.load_range_percent
        assert lo < 20 and hi > 80  # load swings widely...
        assert result.min_power_percent > 50  # ...power does not
        assert "Figure 1" in result.render()


@pytest.mark.slow
class TestFig2:
    def test_hetcmp_beats_baseline_at_intermediate_loads(self):
        result = fig02_efficiency.run("memcached", quick=True)
        assert result.mean_efficiency_gain() >= 1.0
        mid = [
            (h, b)
            for h, b in zip(result.hetcmp, result.baseline)
            if h and b and 0.55 <= h.load <= 0.9
        ]
        assert mid
        assert any(
            h.throughput_per_watt > 1.1 * b.throughput_per_watt for h, b in mid
        )

    def test_state_machine_progression(self):
        """Low loads use small/cheap configs, the top uses big cores."""
        result = fig02_efficiency.run("memcached", quick=True)
        machine = [
            (choice.load, choice.config_label)
            for choice in result.hetcmp
            if choice is not None
        ]
        assert machine[0][1] != machine[-1][1]
        top_config = machine[-1][1]
        assert top_config.startswith("2B")


@pytest.mark.slow
class TestFig5:
    def test_heuristic_explores_wider_space_than_octopus(self):
        result = fig05_heuristic_traces.run("memcached", quick=True)
        assert result.mixed_config_intervals("octopus-man") == 0
        assert result.mixed_config_intervals("hipster-heuristic") > 0
        assert result.distinct_big_freqs("hipster-heuristic") >= 2

    def test_static_has_best_qos(self):
        result = fig05_heuristic_traces.run("memcached", quick=True)
        static_qos = result.summaries["static-big"].qos_guarantee_pct
        for name in ("octopus-man", "hipster-heuristic"):
            assert result.summaries[name].qos_guarantee_pct <= static_qos


@pytest.mark.slow
class TestFig6And7:
    def test_fig7_exploitation_improves_qos(self):
        result = fig07_hipsterin_websearch.run(quick=True)
        assert result.exploitation.qos_guarantee() > result.learning.qos_guarantee()

    def test_fig6_runs_and_renders(self):
        result = fig06_hipsterin_memcached.run(quick=True)
        assert 0.7 < result.result.qos_guarantee() <= 1.0
        assert "HipsterIn" in result.render()


@pytest.mark.slow
class TestFig8:
    def test_hipster_adapts_better_than_octopus(self):
        result = fig08_load_ramp.run(quick=True)
        assert result.tardiness_ratio() > 1.0  # paper: 3.7x


@pytest.mark.slow
class TestFig9:
    def test_hipster_improves_with_time_octopus_flat(self):
        result = fig09_learning_time.run(quick=True)
        assert result.late_improvement() > 0.0
        assert len(result.hipster_windows) == len(result.octopus_windows)


@pytest.mark.slow
class TestFig10:
    def test_sweep_covers_paper_bucket_sizes(self):
        result = fig10_bucket_size.run(quick=True)
        ws = result.rows_for("websearch")
        mc = result.rows_for("memcached")
        assert [r.bucket_size for r in ws] == [0.03, 0.06, 0.09]
        assert [r.bucket_size for r in mc] == [0.02, 0.03, 0.04]
        for row in result.rows:
            assert row.energy_reduction_pct > 0

    def test_default_bucket_reuses_the_shared_diurnal_run(self, monkeypatch):
        """The swept bucket equal to the workload default *is* the
        shared ``hipster-in`` diurnal run (Figure 7's): it executes once
        per runner, and the render is the one recorded before the
        dedupe (sha256 of ``run(quick=True).render()``)."""
        from repro.core.buckets import DEFAULT_BUCKET_SIZE
        from repro.sim import batch

        executed = []
        real_execute = batch.execute_scenario

        def counting_execute(spec):
            executed.append(spec)
            return real_execute(spec)

        monkeypatch.setattr(batch, "execute_scenario", counting_execute)
        runner = batch.BatchRunner()
        fig07_hipsterin_websearch.run(quick=True, runner=runner)
        render = fig10_bucket_size.run(quick=True, runner=runner).render()
        default = DEFAULT_BUCKET_SIZE["websearch"]
        default_bucket_runs = [
            spec
            for spec in executed
            if (spec.workload, spec.manager) == ("websearch", "hipster-in")
            and dict(spec.manager_params).get("bucket_size", default) == default
        ]
        assert len(default_bucket_runs) == 1
        assert len({spec.fingerprint() for spec in executed}) == len(executed)
        assert hashlib.sha256(render.encode()).hexdigest() == (
            "463d45273ef9c6d17aa4cd6c84f4f841167c17e1192ee440379d28cdcee87a64"
        )


@pytest.mark.slow
class TestFig11:
    def test_hipsterco_beats_octopus_qos_with_less_energy(self):
        result = fig11_collocation.run(quick=True)
        assert result.mean_qos("hipster-co") > result.mean_qos("octopus-man")
        assert result.mean_energy("hipster-co") < result.mean_energy("octopus-man")


@pytest.mark.slow
class TestFleetScale:
    def test_power_scales_with_nodes_and_skew_tracks_policy(self):
        result = fleet_scale.run(
            quick=True, node_counts=(1, 4), balancers=("round-robin", "power-aware")
        )
        assert result.node_counts() == (1, 4)
        assert result.balancers() == ("round-robin", "power-aware")
        for balancer in result.balancers():
            small = result.row(balancer, 1)
            large = result.row(balancer, 4)
            # Total power grows roughly with fleet size...
            assert large.total_power_w > 3.0 * small.total_power_w
            # ...while per-node power stays in the single-board ballpark.
            assert 0.5 * small.total_power_w < large.power_per_node_w
            assert large.power_per_node_w < 2.0 * small.total_power_w
        # Consolidation is the whole point of power-aware balancing:
        # it must run visibly more utilization skew than an even deal.
        even = result.row("round-robin", 4)
        consolidated = result.row("power-aware", 4)
        assert consolidated.utilization_skew > even.utilization_skew + 0.05
        assert "Fleet scaling" in result.render()


class TestTables:
    def test_table1_edges_hold(self):
        result = table1_workloads.run(quick=True)
        assert all(row.edge_ok for row in result.rows)

    def test_table2_matches_paper_exactly(self):
        result = table2_characterization.run()
        assert result.big.power_all_cores_w == pytest.approx(2.30, abs=0.01)
        assert result.small.ips_one_core == pytest.approx(826e6, rel=0.001)
        assert result.single_core_efficiency_gain == pytest.approx(1.52, abs=0.03)
        assert result.cluster_efficiency_gain == pytest.approx(1.25, abs=0.03)

    @pytest.mark.slow
    def test_table3_orderings(self):
        result = table3_summary.run(quick=True)
        for workload in ("memcached", "websearch"):
            static_big = result.get("static-big", workload)
            static_small = result.get("static-small", workload)
            octopus = result.get("octopus-man", workload)
            hipster = result.get("hipster-in", workload)
            # Static big: best QoS, zero savings (the reference).
            assert static_big.qos_guarantee_pct >= hipster.qos_guarantee_pct
            assert static_big.energy_reduction_pct == 0.0
            # Static small: unacceptable QoS.
            assert static_small.qos_guarantee_pct < 80.0
            # HipsterIn must dominate Octopus-Man on at least one axis
            # without losing the other (in the full-length runs it wins
            # both; quick runs give the table less time to converge).
            qos_edge = hipster.qos_guarantee_pct - octopus.qos_guarantee_pct
            energy_edge = hipster.energy_reduction_pct - octopus.energy_reduction_pct
            assert (qos_edge > 0 and energy_edge > -5.0) or (
                energy_edge > 2.0 and qos_edge > -4.0
            )
            assert hipster.energy_reduction_pct > 5.0
