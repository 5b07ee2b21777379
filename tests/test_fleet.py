"""Tests for the fleet layer: balancers, FleetSpec, aggregation, caching."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.fleet import (
    BALANCER_FACTORIES,
    FleetOutcome,
    FleetSpec,
    build_balancer,
    run_specs,
)
from repro.fleet.balancer import MAX_NODE_LEVEL, LoadBalancer
from repro.loadgen.traces import SampledTrace
from repro.scenarios import DEFAULT_REGISTRY, ScenarioSpec, TraceSpec
from repro.scenarios.spec import ScenarioOutcome
from repro.sim.batch import BatchRunner


def tiny_fleet(n_nodes: int = 3, **overrides) -> FleetSpec:
    """A fast fleet: constant load, short trace, cheap static manager."""
    defaults = dict(
        workload="memcached",
        trace=TraceSpec.constant(0.6, 12.0),
        manager="static-big",
        n_nodes=n_nodes,
        seed=5,
    )
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestSampledTrace:
    def test_constant_time_lookup_matches_levels(self):
        trace = SampledTrace([0.1, 0.5, 0.9], interval_s=2.0)
        assert trace.duration_s == 6.0
        assert trace.load_at(0.5) == 0.1
        assert trace.load_at(3.0) == 0.5
        assert trace.load_at(5.9) == 0.9
        # Clamped at the end like every other trace.
        assert trace.load_at(100.0) == 0.9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="at least one"):
            SampledTrace([])
        with pytest.raises(ValueError, match="interval_s"):
            SampledTrace([0.5], interval_s=0.0)
        with pytest.raises(ValueError, match="levels"):
            SampledTrace([2.0])

    def test_spec_roundtrip(self):
        spec = TraceSpec.sampled([0.2, 0.4], interval_s=1.0)
        trace = spec.build()
        assert isinstance(trace, SampledTrace)
        assert trace.levels == (0.2, 0.4)


class TestBalancers:
    CAPACITIES = np.array([1.05, 0.95, 1.0, 0.9])
    # Includes the trace layer's extreme 1.5: capacity-weighted splits
    # would push top nodes past the per-node cap, so conservation there
    # exercises the overflow redistribution.
    LOADS = np.array([0.1, 0.45, 0.8, 1.4, 1.5])

    @pytest.mark.parametrize("name", sorted(BALANCER_FACTORIES))
    def test_conserves_offered_load(self, name):
        """What goes into the dispatcher comes out: per-interval node
        levels sum to the fleet's offered load in nominal units."""
        balancer = build_balancer(name)
        levels = balancer.split(self.LOADS, self.CAPACITIES)
        assert levels.shape == (len(self.LOADS), len(self.CAPACITIES))
        np.testing.assert_allclose(
            levels.sum(axis=1), self.LOADS * len(self.CAPACITIES), rtol=1e-9
        )
        assert (levels >= 0).all() and (levels <= MAX_NODE_LEVEL).all()

    def test_round_robin_is_capacity_oblivious(self):
        levels = build_balancer("round-robin").split(self.LOADS, self.CAPACITIES)
        for row, load in zip(levels, self.LOADS):
            np.testing.assert_allclose(row, load)

    def test_least_loaded_equalizes_utilization(self):
        loads = self.LOADS[self.LOADS <= 1.0]  # below the redistribution regime
        levels = build_balancer("least-loaded").split(loads, self.CAPACITIES)
        utilization = levels / self.CAPACITIES[None, :]
        # Every node runs at the same fraction of its own capacity.
        np.testing.assert_allclose(
            utilization, np.broadcast_to(utilization[:, :1], utilization.shape)
        )

    def test_power_aware_consolidates_at_low_load(self):
        levels = build_balancer("power-aware").split(
            np.array([0.2]), self.CAPACITIES
        )
        # 0.2 * 4 = 0.8 nominal units fits inside one 0.85-target node.
        busy = levels[0] > 1e-9
        assert busy.sum() == 1
        # ...and it is the most capable node that absorbs it.
        assert levels[0].argmax() == self.CAPACITIES.argmax()

    def test_power_aware_spills_in_capacity_order(self):
        levels = build_balancer("power-aware").split(
            np.array([0.5]), self.CAPACITIES
        )
        order = np.argsort(-self.CAPACITIES)
        filled = levels[0][order]
        # Monotone fill front: nobody downstream gets work while an
        # upstream node sits below its target.
        target = 0.85 * self.CAPACITIES[order]
        for i in range(len(filled) - 1):
            if filled[i + 1] > 1e-9:
                np.testing.assert_allclose(filled[i], target[i], rtol=1e-9)

    def test_power_aware_target_level_param(self):
        balancer = build_balancer("power-aware", {"target_level": 0.5})
        assert balancer.target_level == 0.5
        with pytest.raises(ValueError, match="target_level"):
            build_balancer("power-aware", {"target_level": 0.0})

    def test_unknown_balancer(self):
        with pytest.raises(KeyError, match="unknown balancer"):
            build_balancer("random")


class TestClipVectorization:
    """The row-subset cap redistribution is byte-identical to the
    preserved full-matrix reference implementation."""

    def test_real_balancer_splits_byte_identical(self):
        rng = np.random.default_rng(123)
        for trial in range(40):
            n_nodes = int(rng.integers(1, 33))
            n_intervals = int(rng.integers(1, 60))
            spread = float(rng.choice([0.0, 0.08, 0.3]))
            caps = np.round(1.0 + spread * rng.uniform(-1, 1, n_nodes), 6)
            loads = np.round(rng.uniform(0.0, 1.5, n_intervals), 4)
            # Pin some intervals to the 1.5 cap edge, where the
            # capacity-weighted splits overflow and redistribution runs.
            loads[rng.random(n_intervals) < 0.3] = 1.5
            for name in sorted(BALANCER_FACTORIES):
                vectorized = build_balancer(name).split(loads, caps)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(
                        LoadBalancer, "_clip", LoadBalancer._clip_reference
                    )
                    reference = build_balancer(name).split(loads, caps)
                assert vectorized.dtype == reference.dtype
                assert np.array_equal(vectorized, reference), (
                    f"{name}: vectorized split diverged from reference "
                    f"(trial {trial})"
                )

    def test_raw_matrices_byte_identical(self):
        """Direct _clip fuzz, including sub-threshold 'dust' excess the
        reference still runs its redistribution arithmetic over."""
        rng = np.random.default_rng(7)
        balancer = build_balancer("round-robin")
        for trial in range(200):
            shape = (int(rng.integers(1, 40)), int(rng.integers(1, 20)))
            raw = rng.uniform(-0.1, 2.2, shape)
            dust = rng.random(shape) < 0.1
            raw[dust] = (
                MAX_NODE_LEVEL + 10.0 ** -rng.integers(13, 17, shape)[dust]
            )
            assert np.array_equal(
                balancer._clip(raw.copy()), balancer._clip_reference(raw.copy())
            ), f"trial {trial}"

    def test_clip_leaves_input_unmutated(self):
        balancer = build_balancer("round-robin")
        raw = np.array([[2.0, 0.5], [0.1, 0.2]])
        snapshot = raw.copy()
        balancer._clip(raw)
        np.testing.assert_array_equal(raw, snapshot)


class TestFleetSpec:
    def test_frozen_picklable_fingerprinted(self):
        spec = tiny_fleet()
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(AttributeError):
            spec.n_nodes = 5
        assert spec.fingerprint() == tiny_fleet().fingerprint()

    def test_fingerprint_tracks_fleet_fields_but_not_label(self):
        spec = tiny_fleet()
        assert spec.with_(n_nodes=4).fingerprint() != spec.fingerprint()
        assert spec.with_(balancer="power-aware").fingerprint() != spec.fingerprint()
        assert spec.with_(capacity_spread=0.2).fingerprint() != spec.fingerprint()
        assert spec.with_(label="renamed").fingerprint() == spec.fingerprint()

    def test_validates_at_construction(self):
        with pytest.raises(ValueError, match="at least one node"):
            tiny_fleet(n_nodes=0)
        with pytest.raises(KeyError, match="unknown balancer"):
            tiny_fleet(balancer="coin-flip")
        with pytest.raises(KeyError, match="unknown manager"):
            tiny_fleet(manager="nonexistent")

    def test_capacities_deterministic_and_spread(self):
        spec = tiny_fleet(n_nodes=16, capacity_spread=0.1)
        caps = spec.node_capacities()
        np.testing.assert_array_equal(caps, spec.node_capacities())
        assert (np.abs(caps - 1.0) <= 0.1 + 1e-9).all()
        homogeneous = tiny_fleet(n_nodes=16, capacity_spread=0.0)
        np.testing.assert_array_equal(
            homogeneous.node_capacities(), np.ones(16)
        )

    def test_node_specs_are_plain_scenarios_with_distinct_seeds(self):
        spec = tiny_fleet(n_nodes=4)
        nodes = spec.node_specs()
        assert len(nodes) == 4
        assert all(isinstance(node, ScenarioSpec) for node in nodes)
        assert nodes == spec.node_specs()  # expansion is pure
        seeds = {node.seed for node in nodes}
        assert len(seeds) == 4 and spec.seed not in seeds
        fingerprints = {node.fingerprint() for node in nodes}
        assert len(fingerprints) == 4

    def test_capacity_scales_node_service_demand(self):
        spec = tiny_fleet(n_nodes=3, capacity_spread=0.1)
        caps = spec.node_capacities()
        demands = [
            dict(node.workload_params)["demand_mean_ms"]
            for node in spec.node_specs()
        ]
        # Slower board (capacity < 1) -> longer per-request demand.
        order_by_cap = np.argsort(caps)
        assert list(np.argsort(demands)[::-1]) == list(order_by_cap)


class TestFleetExecution:
    def test_serial_vs_parallel_identical(self):
        """Streaming aggregation folds in node order regardless of pool
        completion order, so serial and parallel fleets stay bitwise
        identical in every aggregate."""
        spec = tiny_fleet(n_nodes=3)
        serial = spec.run(BatchRunner(jobs=1))
        with BatchRunner(jobs=2) as runner:
            parallel = spec.run(runner)
        assert serial.render() == parallel.render()
        np.testing.assert_array_equal(serial.fleet_tails, parallel.fleet_tails)
        np.testing.assert_array_equal(serial.fleet_powers, parallel.fleet_powers)
        np.testing.assert_array_equal(serial.node_powers_w, parallel.node_powers_w)
        assert serial.total_energy_j() == parallel.total_energy_j()

    def test_warm_cache_replays_all_nodes(self, tmp_path):
        spec = tiny_fleet(n_nodes=3)
        cold = BatchRunner(cache_dir=tmp_path)
        first = spec.run(cold)
        assert cold.cache_misses == 3
        warm = BatchRunner(cache_dir=tmp_path)
        second = spec.run(warm)
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert first.render() == second.render()

    def test_aggregates(self):
        fleet = tiny_fleet(n_nodes=3)
        outcome = fleet.run()
        per_node = outcome.node_mean_powers_w()
        assert outcome.total_mean_power_w() == pytest.approx(per_node.sum())
        # Tail-of-tails dominates every node's own tail (node results
        # re-derived independently: the outcome no longer retains them).
        tails = outcome.fleet_tails_ms()
        for node in BatchRunner().run(fleet.node_specs()):
            assert (tails >= node.result.tails_ms - 1e-12).all()
        # All-nodes-met is at most the weakest node's guarantee.
        assert outcome.fleet_qos_guarantee() <= (
            outcome.node_qos_guarantees().min() + 1e-12
        )
        assert outcome.utilization_skew() >= 0.0
        # Same convention as single-node qos_tardiness: 0 when nothing
        # violates, else the mean overshoot (necessarily > 1).
        tardiness = outcome.fleet_qos_tardiness()
        assert tardiness == 0.0 or tardiness > 1.0

    def test_render_mentions_fleet_shape(self):
        outcome = tiny_fleet(n_nodes=2).run()
        report = outcome.render()
        assert "2 nodes" in report
        assert "tail-of-tails" in report
        assert "node01" in report


class TestStreamingAggregation:
    """The FleetAccumulator fold: order independence, bounded state."""

    def node_outcomes(self, spec):
        return BatchRunner().run(spec.node_specs())

    def test_out_of_order_adds_match_in_order(self):
        from repro.fleet import FleetAccumulator

        spec = tiny_fleet(n_nodes=4)
        outcomes = self.node_outcomes(spec)
        ordered = FleetAccumulator(spec)
        for index, outcome in enumerate(outcomes):
            ordered.add(index, outcome)
        shuffled = FleetAccumulator(spec)
        for index in (2, 0, 3, 1):
            shuffled.add(index, outcomes[index])
        a, b = ordered.finish(), shuffled.finish()
        assert a.render() == b.render()
        np.testing.assert_array_equal(a.fleet_tails, b.fleet_tails)
        np.testing.assert_array_equal(a.fleet_powers, b.fleet_powers)
        assert a.total_energy_j() == b.total_energy_j()

    def test_duplicate_and_out_of_range_adds_rejected(self):
        from repro.fleet import FleetAccumulator

        spec = tiny_fleet(n_nodes=2)
        outcomes = self.node_outcomes(spec)
        accumulator = FleetAccumulator(spec)
        accumulator.add(0, outcomes[0])
        with pytest.raises(ValueError, match="added twice"):
            accumulator.add(0, outcomes[0])
        with pytest.raises(IndexError, match="outside fleet"):
            accumulator.add(5, outcomes[1])

    def test_finish_requires_every_node(self):
        from repro.fleet import FleetAccumulator

        spec = tiny_fleet(n_nodes=3)
        outcomes = self.node_outcomes(spec)
        accumulator = FleetAccumulator(spec)
        accumulator.add(0, outcomes[0])
        with pytest.raises(ValueError, match="incomplete"):
            accumulator.finish()

    def test_unequal_interval_counts_rejected(self):
        from repro.fleet import FleetAccumulator

        spec = tiny_fleet(n_nodes=2)
        outcomes = self.node_outcomes(spec)
        short_spec = spec.node_specs()[1].with_(n_intervals=3)
        (short,) = BatchRunner().run([short_spec])
        accumulator = FleetAccumulator(spec)
        accumulator.add(0, outcomes[0])
        with pytest.raises(ValueError, match="unequal interval counts"):
            accumulator.add(1, short)

    def test_outcome_retains_no_observations(self):
        """The acceptance property: FleetOutcome holds fixed-size
        reductions only -- no node outcome tuples, no observation
        tables."""
        outcome = tiny_fleet(n_nodes=2).run()
        assert not hasattr(outcome, "nodes")
        assert not hasattr(outcome, "node_results")
        state = outcome.__dict__
        leaked = [
            name
            for name, value in state.items()
            if type(value).__name__ in ("ScenarioOutcome", "ExperimentResult")
        ]
        assert leaked == []
        # Aggregation state is O(n_nodes + n_intervals).
        assert outcome.node_powers_w.shape == (2,)
        assert outcome.fleet_tails.ndim == 1

    def test_256_node_fleet_completes_with_streaming_aggregator(self):
        """A fleet size that used to be memory-bound: every aggregate
        is finite and per-node arrays span the whole fleet."""
        spec = tiny_fleet(
            n_nodes=256, trace=TraceSpec.constant(0.5, 6.0), seed=11
        )
        outcome = spec.run()
        assert outcome.n_nodes == 256
        assert outcome.node_powers_w.shape == (256,)
        assert np.isfinite(outcome.node_powers_w).all()
        assert np.isfinite(outcome.fleet_tails_ms()).all()
        assert outcome.total_mean_power_w() > 0
        assert 0.0 <= outcome.fleet_qos_guarantee() <= 1.0
        assert "node255" in outcome.render()


class TestRunSpecs:
    """The mixed-batch primitive: scenarios and fleets in one dispatch."""

    def test_mixed_batch_dedups_and_keeps_input_order(self):
        """Two fleets that differ only in their (unfingerprinted) label
        share every node spec, and a scenario equal to one of those
        nodes adds nothing: each distinct fingerprint runs once."""
        fleet_a = tiny_fleet(n_nodes=3, label="a")
        fleet_b = tiny_fleet(n_nodes=3, label="b")
        node = fleet_a.node_specs()[1]
        runner = BatchRunner()
        outcomes = run_specs([fleet_a, node, fleet_b], runner)
        assert runner.specs_dispatched == 3
        assert [type(o) for o in outcomes] == [
            FleetOutcome,
            ScenarioOutcome,
            FleetOutcome,
        ]
        assert outcomes[0].spec is fleet_a and outcomes[2].spec is fleet_b
        assert outcomes[1].spec == node
        alone = fleet_a.run()
        assert outcomes[0].render() == alone.render()
        np.testing.assert_array_equal(outcomes[2].fleet_tails, alone.fleet_tails)

    def test_default_runner_is_created_and_closed(self, monkeypatch):
        from repro.fleet import aggregate

        created = []

        class Recording(BatchRunner):
            closed = False

            def __post_init__(self):
                super().__post_init__()
                created.append(self)

            def close(self):
                self.closed = True
                super().close()

        monkeypatch.setattr(aggregate, "BatchRunner", Recording)
        spec = tiny_fleet(n_nodes=1).node_specs()[0]
        (outcome,) = run_specs([spec])
        assert outcome.spec == spec
        (made,) = created
        assert made.closed and made.jobs == 1 and made.cache_dir is None
        shared = Recording()
        run_specs([spec], shared)
        assert created == [made, shared]  # a caller's runner is used as-is
        assert not shared.closed and shared.cache_misses == 1

    def test_yield_mode_reports_lowest_failed_node(self):
        from repro.errors import WorkerCrashError
        from repro.sim import chaos

        fleet = tiny_fleet(n_nodes=3)
        solo = tiny_fleet(n_nodes=1, seed=9).node_specs()[0]
        nodes = fleet.node_specs()
        victims = (nodes[2].fingerprint(), nodes[0].fingerprint())
        config = chaos.ChaosConfig(seed=0, poison_fingerprints=victims)
        with chaos.active_config(config):
            with BatchRunner(jobs=2) as runner:
                failed, outcome = run_specs(
                    [fleet, solo], runner, on_failure="yield"
                )
        assert isinstance(failed, WorkerCrashError)
        assert failed.fingerprint == nodes[0].fingerprint()
        assert outcome.spec == solo
        assert runner.specs_failed == 2


class TestFleetFamilies:
    def test_families_registered(self):
        for family in ("fleet-diurnal", "fleet-ramp", "fleet-collocation"):
            assert family in DEFAULT_REGISTRY

    def test_fleet_diurnal_builds(self):
        spec = DEFAULT_REGISTRY.build(
            "fleet-diurnal",
            workload="memcached",
            n_nodes=4,
            balancer="least-loaded",
            quick=True,
        )
        assert isinstance(spec, FleetSpec)
        assert spec.n_nodes == 4
        assert dict(spec.manager_params)["learning_duration_s"] > 0

    def test_fleet_collocation_sets_batch_jobs(self):
        spec = DEFAULT_REGISTRY.build(
            "fleet-collocation", program="lbm", n_nodes=2, quick=True
        )
        assert spec.batch_jobs == "spec:lbm"
        for node in spec.node_specs():
            assert node.batch_jobs == "spec:lbm"

    def test_fleet_ramp_concat_trace(self):
        spec = DEFAULT_REGISTRY.build("fleet-ramp", n_nodes=2, warmup_s=60.0)
        assert spec.trace.kind == "concat"


class TestFaults:
    def clauses(self):
        return (
            {"kind": "node-death", "probability": 0.5, "earliest_s": 3.0},
            {"kind": "straggler", "probability": 0.6, "slowdown": 2.0,
             "duration_s": 4.0},
        )

    def test_schedule_is_a_pure_function_of_the_spec(self):
        spec = tiny_fleet(n_nodes=6, faults=self.clauses())
        events = spec.fault_schedule()
        assert events == spec.fault_schedule()
        assert events == tiny_fleet(n_nodes=6, faults=self.clauses()).fault_schedule()
        reseeded = tiny_fleet(n_nodes=6, seed=99, faults=self.clauses())
        assert events != reseeded.fault_schedule()

    def test_faults_enter_the_fingerprint(self):
        spec = tiny_fleet()
        faulted = tiny_fleet(faults=self.clauses())
        assert spec.fingerprint() != faulted.fingerprint()

    def test_dead_node_drains_and_survivors_absorb(self):
        from repro.fleet.faults import FaultEvent

        spec = tiny_fleet(n_nodes=3, faults=(
            {"kind": "node-death", "probability": 1.0,
             "earliest_s": 0.0, "latest_s": 0.0},))
        events = spec.fault_schedule()
        assert len(events) == 3  # probability 1: every node dies at t=0
        assert all(isinstance(e, FaultEvent) and e.multiplier == 0.0
                   for e in events)
        # A whole-fleet wipeout cannot be expanded into node loads; the
        # error names the dead segment (every interval of the 12 s trace).
        with pytest.raises(ValueError, match="kills every node") as err:
            spec.node_specs()
        assert "intervals 0-12" in str(err.value)

    def test_partial_death_rebalances_onto_survivors(self):
        # Seed 0 fires the clause on node 0 only (pinned draw order).
        clause = {"kind": "node-death", "probability": 0.5,
                  "earliest_s": 6.0, "latest_s": 6.0}
        spec = tiny_fleet(n_nodes=2, balancer="round-robin", seed=0,
                          faults=(clause,))
        events = spec.fault_schedule()
        assert [(e.node, e.start_interval) for e in events] == [(0, 6)]
        nodes = spec.node_specs()
        dead_levels = dict(nodes[0].trace.params)["levels"]
        survivor_levels = dict(nodes[1].trace.params)["levels"]
        # Drained to zero from the death interval on...
        assert set(dead_levels[6:]) == {0.0}
        # ...while the survivor absorbs the whole fleet load (2x its
        # fair share, capped at the balancer's MAX_NODE_LEVEL).
        assert survivor_levels[6] > dead_levels[0]
        assert max(survivor_levels) <= MAX_NODE_LEVEL

    def test_straggler_inflates_load_temporarily(self):
        clause = {"kind": "straggler", "probability": 1.0, "slowdown": 2.0,
                  "duration_s": 3.0, "earliest_s": 4.0, "latest_s": 4.0}
        spec = tiny_fleet(n_nodes=1, balancer="round-robin",
                          faults=(clause,))
        (node,) = spec.node_specs()
        levels = dict(node.trace.params)["levels"]
        # During [4, 7): the 0.6 split inflates by 1/0.5 = 2x.
        assert levels[4] == pytest.approx(levels[0] * 2.0)
        assert levels[7] == pytest.approx(levels[0])

    def test_clause_validation(self):
        with pytest.raises(KeyError, match="unknown fault kind"):
            tiny_fleet(faults=({"kind": "meteor", "probability": 0.5},))
        with pytest.raises(TypeError, match="did you mean"):
            tiny_fleet(faults=(
                {"kind": "node-death", "probability": 0.5, "earliest": 3},))
        with pytest.raises(ValueError, match="probability"):
            tiny_fleet(faults=({"kind": "node-death", "probability": 1.5},))
        with pytest.raises(ValueError, match="slowdown"):
            tiny_fleet(faults=(
                {"kind": "straggler", "probability": 0.5, "slowdown": 0.9,
                 "duration_s": 5.0},))

    def test_faultless_spec_keeps_pre_fault_expansion(self):
        spec = tiny_fleet(n_nodes=3)
        assert spec.fault_schedule() == ()
        assert spec.with_(faults=()).node_specs() == spec.node_specs()


class TestHeterogeneousFleet:
    def mixed(self, **overrides):
        return tiny_fleet(
            n_nodes=3, workload_mix={"memcached": 2, "websearch": 1},
            **overrides,
        )

    def test_mix_assigns_sorted_name_blocks(self):
        spec = self.mixed()
        assert spec.node_workloads() == ("memcached", "memcached", "websearch")
        assert spec.is_heterogeneous()
        assert not tiny_fleet().is_heterogeneous()

    def test_mix_must_sum_to_n_nodes(self):
        with pytest.raises(ValueError, match="workload_mix"):
            tiny_fleet(n_nodes=3, workload_mix={"memcached": 2})
        with pytest.raises(KeyError, match="unknown workload"):
            tiny_fleet(n_nodes=3, workload_mix={"memcached": 2, "redis": 1})

    def test_mix_enters_the_fingerprint(self):
        assert self.mixed().fingerprint() != tiny_fleet(n_nodes=3).fingerprint()

    def test_node_specs_carry_their_workload(self):
        nodes = self.mixed().node_specs()
        assert [node.workload for node in nodes] == [
            "memcached", "memcached", "websearch"]

    def test_hetero_aggregation_uses_per_node_targets(self):
        outcome = self.mixed().run()
        assert outcome.is_heterogeneous
        assert outcome.fleet_ratio is not None
        assert len(outcome.node_targets) == 3
        # Both workload targets appear among the per-node targets.
        assert len(set(outcome.node_targets.tolist())) == 2
        guarantee = outcome.fleet_qos_guarantee()
        assert 0.0 <= guarantee <= 1.0
        assert "workload" in outcome.render()

    def test_homogeneous_render_has_no_workload_column(self):
        outcome = tiny_fleet(n_nodes=2).run()
        assert "workload" not in outcome.render()
