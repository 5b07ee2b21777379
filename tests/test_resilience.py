"""The correlated-fault resilience layer and its satellites.

Three concerns, in one suite:

* **Byte-identity with HEAD** -- golden pins (fingerprints, node
  fingerprints, a full-render hash) recorded *before* the resilience
  layer landed: faultless fleets and legacy independent fault clauses
  must not move by a byte.
* **Determinism of the new machinery** -- correlated clauses
  (rack-death / cascading-straggler / brownout-wave) lower to identical
  schedules on every call, stay isolated under the fixed-draw-order
  discipline (hypothesis fuzz over seeds and clause mixes), and a
  resilient fleet renders byte-identically serial vs ``--jobs 4``.
* **The robustness satellite** -- bounded quarantine.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from repro.fleet import (
    FAULT_KINDS,
    FaultClause,
    FleetSpec,
    lower_faults,
    split_with_timeline,
    timeline_multipliers,
)
from repro.fleet.balancer import build_balancer
from repro.scenarios.spec import TraceSpec
from repro.sim import batch
from repro.sim.batch import BatchRunner, DiskCache

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - the image bakes hypothesis in
    HAVE_HYPOTHESIS = False


def plain_fleet(**overrides) -> FleetSpec:
    params = dict(
        workload="memcached",
        trace=TraceSpec.constant(0.6, 60.0),
        manager="static-big",
        n_nodes=8,
        seed=5,
    )
    params.update(overrides)
    return FleetSpec(**params)


CORRELATED_FAULTS = (
    {
        "kind": "rack-death",
        "probability": 0.45,
        "earliest_s": 10.0,
        "latest_s": 30.0,
        "detection_s": 4.0,
        "repair_s": 15.0,
    },
    {
        "kind": "cascading-straggler",
        "probability": 0.25,
        "slowdown": 2.0,
        "duration_s": 10.0,
        "spread": 0.7,
        "detection_s": 2.0,
    },
)


def resilient_fleet(**overrides) -> FleetSpec:
    params = dict(
        balancer="least-loaded",
        topology={"rackA": 4, "rackB": 4},
        faults=CORRELATED_FAULTS,
        seed=3,
    )
    params.update(overrides)
    return plain_fleet(**params)


# ----------------------------------------------------------------------
# golden pins: byte-identity with the pre-resilience HEAD
# ----------------------------------------------------------------------


class TestGoldenPins:
    """Values recorded at the commit before this layer landed.

    Fingerprints and node keys fold in ``SCHEMA_VERSION`` and were
    re-pinned at its 2 -> 3 bump; fleet fingerprints were re-pinned
    again at ``FLEET_SCHEMA_VERSION`` 4.  Node keys, fault windows and
    render digests never move."""

    def test_faultless_fleet_fingerprint_unmoved(self):
        assert plain_fleet().fingerprint() == "01eb1f7a95de6e64fc1ecd09"

    def test_faultless_fleet_node_fingerprints_unmoved(self):
        expected = [
            "s3-lindley-v1-c62a943d3ae1d33f6d51cccd",
            "s3-lindley-v1-ebbe803109e44d9e1906ecd9",
            "s3-lindley-v1-d1fda081ebefdd15d770481b",
            "s3-lindley-v1-c4acbea942f989347dfdbe2c",
            "s3-lindley-v1-c434f305ffda038d1df78bbe",
            "s3-lindley-v1-bd3a83ef5465f7d62e76ef2d",
            "s3-lindley-v1-014c41dfa9e98d8fd38d48c5",
            "s3-lindley-v1-15049679e7b744074946a8b3",
        ]
        actual = [spec.fingerprint() for spec in plain_fleet().node_specs()]
        assert actual == expected

    def test_faultless_fleet_render_unmoved(self):
        digest = hashlib.sha256(
            plain_fleet().run().render().encode()
        ).hexdigest()
        assert digest == (
            "865d6aed1ec8490d7a416cbd62f1e4edfa464b6fa06a759e985a02693ec0a5e4"
        )

    def test_registry_fleet_unmoved(self):
        from repro.scenarios import DEFAULT_REGISTRY

        spec = DEFAULT_REGISTRY.build(
            "fleet-diurnal",
            workload="memcached",
            n_nodes=8,
            balancer="least-loaded",
            quick=True,
        )
        assert spec.fingerprint() == "718bd7e0369d0225623d70ac"
        joined = ",".join(s.fingerprint() for s in spec.node_specs())
        assert hashlib.sha256(joined.encode()).hexdigest() == (
            "f8156ed1d8b1481b3203cc5de6329dee917581a617e6da6218c21254102688fd"
        )

    def test_legacy_fault_clauses_unmoved(self):
        spec = plain_fleet(
            seed=0,
            faults=(
                {"kind": "node-death", "probability": 0.3, "earliest_s": 10.0},
                {
                    "kind": "straggler",
                    "probability": 0.6,
                    "slowdown": 2.0,
                    "duration_s": 8.0,
                },
            ),
        )
        assert spec.fingerprint() == "dfdf60157024483a789675b2"
        joined = ",".join(s.fingerprint() for s in spec.node_specs())
        assert hashlib.sha256(joined.encode()).hexdigest() == (
            "cdbe43ab3ebef407269039f4ce771e30504437ed47a3e8470dff17d0f62616d5"
        )
        windows = [
            (e.node, e.kind, e.start_interval, e.end_interval)
            for e in spec.fault_schedule()
        ]
        assert windows == [
            (0, "node-death", 26, 60),
            (2, "node-death", 52, 60),
            (7, "node-death", 56, 60),
            (1, "straggler", 54, 60),
            (4, "straggler", 22, 30),
            (6, "straggler", 36, 44),
        ]
        assert all(
            e.detect_interval is None for e in spec.fault_schedule()
        )

    @pytest.mark.parametrize(
        ("balancer", "fingerprint", "nodes_digest"),
        [
            (
                "round-robin",
                "24b246ec49bef9b60f1919d3",
                "1c8b6acef9424701cd7004029b57f39def0e4c9350419da6b08466ffdcff67ec",
            ),
            (
                "least-loaded",
                "b45d0f5837d0c14405f4a250",
                "be2bf505793f9dc0beb720fbec709521842b1312635391772c7da038d4addc74",
            ),
            (
                "power-aware",
                "e07d4c785e9f6cca7321a029",
                "958fe184d8034fd22825ce56217b50315d8a9fc2939542b50089833d254a7e45",
            ),
        ],
    )
    def test_legacy_fault_mix_unmoved(self, balancer, fingerprint, nodes_digest):
        """Every independent kind, instantly detected, under each
        balancer -- pinned before these fleets moved onto the timeline
        split, which must reproduce their node specs byte for byte."""
        spec = plain_fleet(
            seed=0,
            balancer=balancer,
            faults=(
                {"kind": "node-death", "probability": 0.3, "earliest_s": 10.0},
                {
                    "kind": "degradation",
                    "probability": 0.4,
                    "factor": 0.6,
                    "earliest_s": 5.0,
                },
                {
                    "kind": "straggler",
                    "probability": 0.6,
                    "slowdown": 2.0,
                    "duration_s": 8.0,
                },
            ),
        )
        assert {e.kind for e in spec.fault_schedule()} == {
            "node-death",
            "degradation",
            "straggler",
        }
        assert spec.fingerprint() == fingerprint
        joined = ",".join(s.fingerprint() for s in spec.node_specs())
        assert hashlib.sha256(joined.encode()).hexdigest() == nodes_digest


# ----------------------------------------------------------------------
# lowering: clause validation and the draw-order discipline
# ----------------------------------------------------------------------


class TestCorrelatedClauses:
    def test_new_kinds_validate(self):
        for clause in CORRELATED_FAULTS:
            FaultClause.from_params(clause)
        wave = FaultClause.from_params(
            {
                "kind": "brownout-wave",
                "probability": 1.0,
                "factor": 0.5,
                "duration_s": 10.0,
            }
        )
        assert wave.capacity_multiplier() == 0.5

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="spread"):
            FaultClause.from_params(
                {
                    "kind": "cascading-straggler",
                    "probability": 0.5,
                    "slowdown": 2.0,
                    "duration_s": 5.0,
                    "spread": 1.5,
                }
            )
        with pytest.raises(ValueError, match="repair_s"):
            FaultClause.from_params(
                {"kind": "node-death", "probability": 0.5, "repair_s": -1.0}
            )
        with pytest.raises(ValueError, match="detection_s"):
            FaultClause.from_params(
                {"kind": "node-death", "probability": 0.5, "detection_s": -2.0}
            )
        with pytest.raises(TypeError, match="did you mean"):
            FaultClause.from_params(
                {"kind": "rack-death", "probability": 0.5, "earliest": 3.0}
            )

    def test_rack_death_strikes_whole_racks(self):
        racks = (("a", (0, 1, 2)), ("b", (3, 4, 5)))
        events = lower_faults(
            ({"kind": "rack-death", "probability": 1.0},),
            seed=7,
            n_nodes=6,
            n_intervals=50,
            interval_s=1.0,
            racks=racks,
        )
        by_rack = {}
        for event in events:
            by_rack.setdefault(event.start_interval, set()).add(event.node)
        assert set(map(frozenset, by_rack.values())) <= {
            frozenset({0, 1, 2}),
            frozenset({3, 4, 5}),
        }

    def test_brownout_wave_staggers_racks_in_block_order(self):
        racks = (("a", (0, 1)), ("b", (2, 3)))
        events = lower_faults(
            (
                {
                    "kind": "brownout-wave",
                    "probability": 1.0,
                    "factor": 0.5,
                    "duration_s": 5.0,
                    "stagger_s": 10.0,
                    "latest_s": 5.0,
                },
            ),
            seed=1,
            n_nodes=4,
            n_intervals=60,
            interval_s=1.0,
            racks=racks,
        )
        starts = {e.node: e.start_interval for e in events}
        assert starts[2] - starts[0] == 10
        assert starts[0] == starts[1] and starts[2] == starts[3]

    def test_repair_bounds_the_window(self):
        events = lower_faults(
            (
                {
                    "kind": "node-death",
                    "probability": 1.0,
                    "latest_s": 0.0,
                    "repair_s": 7.0,
                    "detection_s": 2.0,
                },
            ),
            seed=0,
            n_nodes=2,
            n_intervals=40,
            interval_s=1.0,
        )
        assert len(events) == 2
        for event in events:
            assert event.end_interval == event.start_interval + 7
            assert event.detect_interval == event.start_interval + 2

    def test_lead_probability_never_reshuffles_the_tail_clause(self):
        """The fixed draw budget: a leading clause consumes the same
        variate count whether or not it fires, so editing its
        probability never moves the trailing clause's events."""
        tail = {
            "kind": "cascading-straggler",
            "probability": 0.4,
            "slowdown": 2.0,
            "duration_s": 8.0,
        }
        kwargs = dict(
            seed=11,
            n_nodes=6,
            n_intervals=80,
            interval_s=1.0,
            racks=(("a", (0, 1, 2)), ("b", (3, 4, 5))),
        )
        baseline = None
        for probability in (0.0, 0.5, 1.0):
            lead = {"kind": "rack-death", "probability": probability}
            combined = lower_faults((lead, tail), **kwargs)
            tail_events = tuple(
                e for e in combined if e.kind == "cascading-straggler"
            )
            if baseline is None:
                baseline = tail_events
            assert tail_events == baseline
        assert baseline  # the tail clause actually fired somewhere


if HAVE_HYPOTHESIS:

    @st.composite
    def clause_lists(draw):
        clauses = []
        n = draw(st.integers(min_value=1, max_value=3))
        for _ in range(n):
            kind = draw(
                st.sampled_from(
                    [
                        "node-death",
                        "degradation",
                        "straggler",
                        "rack-death",
                        "cascading-straggler",
                        "brownout-wave",
                    ]
                )
            )
            clause = {
                "kind": kind,
                "probability": draw(
                    st.floats(min_value=0.0, max_value=1.0)
                ),
            }
            if kind == "degradation" or kind == "brownout-wave":
                clause["factor"] = 0.5
            if kind in ("straggler", "cascading-straggler", "brownout-wave"):
                clause["duration_s"] = draw(
                    st.floats(min_value=1.0, max_value=30.0)
                )
            if kind in ("straggler", "cascading-straggler"):
                clause["slowdown"] = 2.0
            if draw(st.booleans()):
                clause["detection_s"] = draw(
                    st.floats(min_value=0.0, max_value=10.0)
                )
            clauses.append(clause)
        return tuple(clauses)

    class TestLoweringFuzz:
        @settings(
            max_examples=60,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            clauses=clause_lists(),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
            n_nodes=st.integers(min_value=1, max_value=12),
        )
        def test_lowering_is_deterministic(self, clauses, seed, n_nodes):
            racks = None
            if n_nodes >= 2:
                half = n_nodes // 2
                racks = (
                    ("a", tuple(range(half))),
                    ("b", tuple(range(half, n_nodes))),
                )
            kwargs = dict(
                seed=seed,
                n_nodes=n_nodes,
                n_intervals=60,
                interval_s=1.0,
                racks=racks,
            )
            first = lower_faults(clauses, **kwargs)
            assert lower_faults(clauses, **kwargs) == first
            for event in first:
                assert 0 <= event.start_interval < event.end_interval <= 60
                assert 0 <= event.node < n_nodes
                if event.detect_interval is not None:
                    assert (
                        event.start_interval
                        <= event.detect_interval
                        <= event.end_interval
                    )

        @settings(max_examples=30, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
        def test_known_dead_is_subset_of_physically_dead(self, seed):
            events = lower_faults(
                CORRELATED_FAULTS,
                seed=seed,
                n_nodes=6,
                n_intervals=60,
                interval_s=1.0,
                racks=(("a", (0, 1, 2)), ("b", (3, 4, 5))),
            )
            physical, known = timeline_multipliers(
                events, n_nodes=6, n_intervals=60
            )
            # Wherever the balancer believes a node is dead, it is dead.
            assert np.all(physical[known == 0.0] == 0.0)


# ----------------------------------------------------------------------
# the timeline split
# ----------------------------------------------------------------------


class TestTimelineSplit:
    def test_undetected_death_spills_onto_survivors(self):
        from repro.fleet.faults import FaultEvent

        loads = np.full(20, 0.5)
        capacities = np.ones(4)
        balancer = build_balancer("round-robin", ())
        events = (
            FaultEvent(
                node=0,
                kind="node-death",
                start_interval=5,
                end_interval=15,
                multiplier=0.0,
                detect_interval=10,
            ),
        )
        levels = split_with_timeline(loads, capacities, balancer, events)
        # Before the fault: even split.
        assert np.allclose(levels[0], 0.5)
        # Undetected window: node0 serves nothing, its share spills
        # uniformly onto the three survivors.
        assert np.all(levels[5:10, 0] == 0.0)
        assert np.allclose(levels[5:10, 1:], 0.5 + 0.5 / 3)
        # Post-detection: the balancer re-splits over the survivors.
        assert np.all(levels[10:15, 0] == 0.0)
        assert np.allclose(levels[10:15, 1:], 2.0 / 3)
        # Post-repair: back to the even split.
        assert np.allclose(levels[15:], 0.5)

    def test_total_death_raises(self):
        from repro.fleet.faults import FaultEvent

        loads = np.full(10, 0.5)
        balancer = build_balancer("round-robin", ())
        events = tuple(
            FaultEvent(
                node=node,
                kind="node-death",
                start_interval=2,
                end_interval=8,
                multiplier=0.0,
            )
            for node in range(2)
        )
        with pytest.raises(ValueError, match="kills every node") as err:
            split_with_timeline(loads, np.ones(2), balancer, events)
        assert "intervals 2-8" in str(err.value)

    def test_resilient_fleet_runs_serial_equals_jobs4(self):
        spec = resilient_fleet()
        serial = spec.run(BatchRunner(jobs=1))
        with BatchRunner(jobs=4) as runner:
            parallel = resilient_fleet().run(runner)
        assert serial.render() == parallel.render()
        assert serial.resilience_report() == parallel.resilience_report()

    def test_seed_changes_the_schedule(self):
        schedules = {
            resilient_fleet(seed=seed).fault_schedule() for seed in range(6)
        }
        assert len(schedules) > 1


#: One clause per fault kind, each with a detector lag so the spill onto
#: survivors (undetected faults) is exercised alongside re-splits.
ORACLE_CLAUSES = {
    "node-death": {
        "kind": "node-death",
        "probability": 0.35,
        "earliest_s": 10.0,
        "detection_s": 3.0,
        "repair_s": 20.0,
    },
    "degradation": {
        "kind": "degradation",
        "probability": 0.5,
        "factor": 0.5,
        "detection_s": 3.0,
    },
    "straggler": {
        "kind": "straggler",
        "probability": 0.5,
        "slowdown": 2.0,
        "duration_s": 15.0,
        "detection_s": 2.0,
    },
    "rack-death": {
        "kind": "rack-death",
        "probability": 0.5,
        "detection_s": 3.0,
        "repair_s": 20.0,
    },
    "cascading-straggler": {
        "kind": "cascading-straggler",
        "probability": 0.3,
        "slowdown": 2.0,
        "duration_s": 12.0,
        "spread": 0.6,
        "detection_s": 2.0,
    },
    "brownout-wave": {
        "kind": "brownout-wave",
        "probability": 1.0,
        "factor": 0.5,
        "duration_s": 15.0,
        "stagger_s": 10.0,
        "detection_s": 4.0,
    },
}


class TestConservationOracle:
    """The timeline split conserves offered load, checked from first
    principles rather than against another implementation: what the
    physically alive nodes serve (planned level x physical capacity
    multiplier) sums to the fleet's demand in every interval where no
    node hit :data:`MAX_NODE_LEVEL`, and never exceeds it."""

    @pytest.mark.parametrize("topology", [None, {"a": 3, "b": 5}])
    @pytest.mark.parametrize("balancer", ["round-robin", "least-loaded", "power-aware"])
    @pytest.mark.parametrize("kind", sorted(ORACLE_CLAUSES))
    def test_split_conserves_demand(self, kind, balancer, topology):
        from repro.fleet.balancer import MAX_NODE_LEVEL

        checked_fault_intervals = 0
        for seed in range(4):
            spec = plain_fleet(
                trace=TraceSpec.constant(0.7, 80.0),
                balancer=balancer,
                topology=topology or {},
                faults=(ORACLE_CLAUSES[kind],),
                seed=seed,
            )
            events = spec.fault_schedule()
            if not events:
                continue
            physical, _known = timeline_multipliers(
                events, n_nodes=spec.n_nodes, n_intervals=len(spec.fleet_loads())
            )
            if not (physical > 0.0).any(axis=1).all():
                # One rack holding the whole fleet died: nothing can serve.
                with pytest.raises(ValueError, match="kills every node"):
                    spec.planned_levels()
                continue
            levels = spec.planned_levels()
            assert np.all(levels[physical == 0.0] == 0.0)
            served = (levels * physical).sum(axis=1)
            demand = spec.fleet_loads() * spec.n_nodes
            assert np.all(served <= demand * (1.0 + 1e-9))
            uncapped = ~(levels >= MAX_NODE_LEVEL).any(axis=1)
            np.testing.assert_allclose(
                served[uncapped], demand[uncapped], rtol=1e-9, atol=0.0
            )
            checked_fault_intervals += int(
                (uncapped & (physical < 1.0).any(axis=1)).sum()
            )
        if kind == "rack-death" and topology is None:
            return
        assert checked_fault_intervals > 0


#: ``sha256`` of every ``(node, kind, start, end, multiplier, detect)``
#: tuple the grid in :class:`TestSchedulePin` lowers to, recorded
#: before the draw-unit loop merged the per-kind lowerings.
SCHEDULE_PIN_SHA256 = "80041fac267544893bb67006a2fc7e5738e0a032c9902f98999aa064a22a072e"

SCHEDULE_PIN_CLAUSES = (
    {"kind": "node-death", "probability": 0.3, "earliest_s": 10.0},
    {"kind": "degradation", "probability": 0.4, "factor": 0.6},
    {"kind": "straggler", "probability": 0.5, "slowdown": 2.0, "duration_s": 8.0},
    {"kind": "rack-death", "probability": 0.5, "earliest_s": 5.0},
    {
        "kind": "cascading-straggler",
        "probability": 0.4,
        "slowdown": 2.0,
        "duration_s": 10.0,
        "spread": 0.6,
    },
    {
        "kind": "brownout-wave",
        "probability": 0.8,
        "factor": 0.5,
        "duration_s": 10.0,
        "stagger_s": 5.0,
    },
)


class TestSchedulePin:
    def test_fault_schedules_unmoved(self):
        """Every kind alone and all six together, with and without
        detection/repair, on no topology, two even racks and four
        uneven ones, seeds 0-2."""

        def timed(clause):
            timed = dict(clause, detection_s=3.0)
            if clause["kind"] in ("node-death", "degradation", "rack-death"):
                timed["repair_s"] = 12.0
            return timed

        rows = []
        for topology in ({}, {"a": 4, "b": 4}, {"w": 1, "x": 2, "y": 2, "z": 3}):
            for seed in range(3):
                for with_timing in (False, True):
                    base = tuple(
                        timed(c) if with_timing else c for c in SCHEDULE_PIN_CLAUSES
                    )
                    for faults in (*((c,) for c in base), base):
                        spec = plain_fleet(seed=seed, topology=topology, faults=faults)
                        rows.extend(
                            (
                                e.node,
                                e.kind,
                                e.start_interval,
                                e.end_interval,
                                e.multiplier,
                                e.detect_interval,
                            )
                            for e in spec.fault_schedule()
                        )
        assert len(rows) == 706
        assert {row[1] for row in rows} == set(FAULT_KINDS)
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == SCHEDULE_PIN_SHA256


# ----------------------------------------------------------------------
# spec plumbing: topology, fingerprints, gating
# ----------------------------------------------------------------------


class TestSpecPlumbing:
    def test_topology_must_sum_to_n_nodes(self):
        with pytest.raises(ValueError, match="topology rack counts sum"):
            plain_fleet(topology={"a": 3, "b": 3})
        with pytest.raises(ValueError, match="positive ints"):
            plain_fleet(topology={"a": 0, "b": 8})

    def test_rack_blocks_default_and_sorted(self):
        assert plain_fleet().rack_blocks() == (
            ("rack0", tuple(range(8))),
        )
        spec = plain_fleet(topology={"zone-b": 5, "zone-a": 3})
        assert spec.rack_blocks() == (
            ("zone-a", (0, 1, 2)),
            ("zone-b", (3, 4, 5, 6, 7)),
        )

    def test_topology_alone_engages_resilience(self):
        """A topology alone moves the identity and gives the correlated
        kinds their racks (it is in the one fingerprint payload)."""
        spec = plain_fleet(topology={"a": 4, "b": 4})
        assert spec.fingerprint() != plain_fleet().fingerprint()
        struck = spec.with_(
            faults=({"kind": "rack-death", "probability": 1.0},)
        ).fault_schedule()
        assert {e.node for e in struck} == set(range(8))
        assert len({e.start_interval for e in struck}) == 2

    def test_detection_on_legacy_kind_moves_fingerprint(self):
        base = plain_fleet(
            faults=({"kind": "node-death", "probability": 0.3},)
        )
        detected = plain_fleet(
            faults=(
                {
                    "kind": "node-death",
                    "probability": 0.3,
                    "detection_s": 5.0,
                },
            )
        )
        assert base.fingerprint() != detected.fingerprint()

    def test_pack_dsl_accepts_topology_and_correlated_clauses(self):
        from repro.packs import compile_pack

        pack = compile_pack(
            {
                "name": "drill",
                "scenarios": [
                    {
                        "fleet": {
                            "workload": "memcached",
                            "manager": "static-big",
                            "n_nodes": 4,
                            "topology": {"a": 2, "b": 2},
                            "trace": {
                                "kind": "constant",
                                "level": 0.5,
                                "duration_s": 60,
                            },
                            "faults": [
                                {
                                    "kind": "rack-death",
                                    "probability": 0.5,
                                    "detection_s": 3,
                                    "repair_s": 20,
                                }
                            ],
                        }
                    }
                ],
            }
        )
        pack.validate_buildable()
        (item,) = pack.items
        assert item.spec.rack_blocks() == (("a", (0, 1)), ("b", (2, 3)))


# ----------------------------------------------------------------------
# the resilience report
# ----------------------------------------------------------------------


class TestResilienceReport:
    def test_plain_fleet_has_no_report(self):
        for spec in (
            plain_fleet(n_nodes=3),
            plain_fleet(n_nodes=3, topology={"a": 1, "b": 2}),
        ):
            outcome = spec.run()
            assert outcome.resilience_report() is None
            assert "resilience:" not in outcome.render()

    def test_every_faulted_fleet_has_a_report(self):
        """Instantly detected independent kinds -- no topology, no
        ``detection_s`` -- get a report like any other faulted fleet."""
        spec = plain_fleet(
            seed=0,
            faults=(
                {"kind": "node-death", "probability": 0.3, "earliest_s": 10.0},
                {
                    "kind": "straggler",
                    "probability": 0.6,
                    "slowdown": 2.0,
                    "duration_s": 8.0,
                },
            ),
        )
        events = spec.fault_schedule()
        assert events and all(e.detect_interval is None for e in events)
        outcome = spec.run()
        report = outcome.resilience_report()
        assert report is not None
        assert report.n_events == len(events) == 6
        assert report.nodes_faulted == 6
        assert f"resilience: {len(events)} event(s)" in outcome.render()

    def test_clauses_that_lower_to_nothing_still_report(self):
        spec = plain_fleet(
            n_nodes=3, faults=({"kind": "node-death", "probability": 0.0},)
        )
        assert spec.fault_schedule() == ()
        outcome = spec.run()
        report = outcome.resilience_report()
        assert report is not None
        assert (report.n_events, report.nodes_faulted, report.nodes_affected) == (
            0,
            0,
            0,
        )
        assert report.blast_radius == 0.0
        assert report.fault_intervals == 0
        assert report.qos_during_faults == report.qos_baseline
        assert report.degradation_depth == 0.0
        assert report.time_to_recover_s_max == 0.0
        assert report.recoveries_censored == 0
        assert report.overload_peak_level == pytest.approx(0.6)
        values = [v for v in report.as_dict().values() if v is not None]
        assert all(np.isfinite(values))
        assert "resilience: 0 event(s) on 0 node(s)" in outcome.render()

    def test_report_fields_and_render(self):
        outcome = resilient_fleet().run()
        report = outcome.resilience_report()
        assert report is not None
        events = resilient_fleet().fault_schedule()
        assert report.n_events == len(events)
        assert report.nodes_faulted == len({e.node for e in events})
        assert report.nodes_affected >= report.nodes_faulted
        assert report.blast_radius == pytest.approx(
            report.nodes_affected / report.nodes_faulted
        )
        assert 0.0 <= report.qos_during_faults <= 1.0
        assert report.degradation_depth >= 0.0
        assert report.time_to_recover_s_max >= report.time_to_recover_s_mean
        assert report.overload_peak_level > 1.0
        assert report.peak_tail_ratio is not None
        rendered = outcome.render()
        assert "resilience:" in rendered
        assert "blast radius" in rendered
        payload = json.dumps(report.as_dict())
        assert "degradation_depth" in payload

    def test_pack_summary_carries_resilience(self, tmp_path):
        from repro.packs import run_pack

        result = run_pack("packs/rack-outage.yaml", quick=True)
        summary = result.summary()
        resilient = [
            item for item in summary["items"] if "resilience" in item
        ]
        assert len(resilient) == 3  # rack-outage x2 replicas + brownout
        for item in resilient:
            report = item["resilience"]
            assert {
                "blast_radius",
                "degradation_depth",
                "time_to_recover_s_mean",
            } <= set(report)
        reference = [
            item
            for item in summary["items"]
            if item["key"] == "no-faults-reference"
        ]
        assert reference and "resilience" not in reference[0]
        assert "blast radius" in result.render()


# ----------------------------------------------------------------------
# memoized expansion: each derivation runs once per spec instance
# ----------------------------------------------------------------------


#: A pack holding one fleet equal to ``resilient_fleet()``.
RESILIENT_FLEET_PACK = {
    "name": "one-fleet",
    "scenarios": [
        {
            "fleet": {
                "workload": "memcached",
                "manager": "static-big",
                "n_nodes": 8,
                "balancer": "least-loaded",
                "seed": 3,
                "topology": {"rackA": 4, "rackB": 4},
                "faults": list(CORRELATED_FAULTS),
                "trace": {"kind": "constant", "level": 0.6, "duration_s": 60},
            }
        }
    ],
}


class TestExpansionMemo:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of fault lowerings and timeline splits."""
        import repro.fleet.spec as fleet_spec

        counts = {"lower_faults": 0, "split_with_timeline": 0}
        for name in counts:
            original = getattr(fleet_spec, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(fleet_spec, name, counting)
        return counts

    def test_run_report_render_lower_and_split_once(self, calls):
        spec = resilient_fleet()
        outcome = spec.run()
        assert outcome.resilience_report() is not None
        outcome.render()
        outcome.render()
        assert calls == {"lower_faults": 1, "split_with_timeline": 1}
        # A fresh equal instance derives its own copy.
        resilient_fleet().node_specs()
        assert calls == {"lower_faults": 2, "split_with_timeline": 2}

    def test_pack_run_summary_render_lower_and_split_once(self, calls):
        from repro.packs import run_pack

        result = run_pack(RESILIENT_FLEET_PACK)
        assert result.pack.items[0].spec == resilient_fleet()
        assert "resilience" in result.summary()["items"][0]
        assert "blast radius" in result.render()
        assert calls == {"lower_faults": 1, "split_with_timeline": 1}

    def test_derived_arrays_are_shared_and_read_only(self):
        for spec in (resilient_fleet(), plain_fleet()):
            for derive in (spec.fleet_loads, spec.planned_levels):
                array = derive()
                assert derive() is array
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0.0

    def test_expanded_spec_interchangeable_with_fresh(self):
        expanded = resilient_fleet()
        expanded.node_specs()
        expanded.planned_levels()
        fresh = resilient_fleet()
        assert expanded == fresh
        assert hash(expanded) == hash(fresh)
        assert expanded.fingerprint() == fresh.fingerprint()
        assert {fresh: "found"}[expanded] == "found"

    def test_pickled_expanded_spec_keeps_node_fingerprints(self):
        import pickle

        expanded = resilient_fleet()
        before = [spec.fingerprint() for spec in expanded.node_specs()]
        clone = pickle.loads(pickle.dumps(expanded))
        assert clone == expanded
        assert clone.fingerprint() == expanded.fingerprint()
        assert [spec.fingerprint() for spec in clone.node_specs()] == before
        assert [
            spec.fingerprint() for spec in resilient_fleet().node_specs()
        ] == before


# ----------------------------------------------------------------------
# satellites: quarantine bound, env warnings
# ----------------------------------------------------------------------


class TestQuarantineBound:
    def test_oldest_evicted_past_entry_bound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(batch, "QUARANTINE_MAX_ENTRIES", 3)
        cache = DiskCache(tmp_path)
        cache.quarantine_path.mkdir(parents=True)
        for i in range(6):
            path = cache.quarantine_path / f"entry{i}.pkl"
            path.write_bytes(b"x" * 10)
            os.utime(path, (1000 + i, 1000 + i))
        cache._bound_quarantine()
        survivors = sorted(p.name for p in cache.quarantine_path.iterdir())
        assert survivors == ["entry3.pkl", "entry4.pkl", "entry5.pkl"]
        assert cache.quarantine_evictions == 3

    def test_size_bound_evicts_oldest_first(self, tmp_path, monkeypatch):
        monkeypatch.setattr(batch, "QUARANTINE_MAX_BYTES", 25)
        cache = DiskCache(tmp_path)
        cache.quarantine_path.mkdir(parents=True)
        for i in range(4):
            path = cache.quarantine_path / f"blob{i}"
            path.write_bytes(b"y" * 10)
            os.utime(path, (2000 + i, 2000 + i))
        cache._bound_quarantine()
        survivors = sorted(p.name for p in cache.quarantine_path.iterdir())
        assert survivors == ["blob2", "blob3"]
        assert cache.quarantine_evictions == 2

    def test_quarantining_a_corrupt_entry_triggers_the_bound(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(batch, "QUARANTINE_MAX_ENTRIES", 1)
        cache = DiskCache(tmp_path)
        cache.quarantine_path.mkdir(parents=True)
        old = cache.quarantine_path / "ancient.pack-record"
        old.write_bytes(b"z")
        os.utime(old, (100, 100))
        cache.store_many([("corrupt", b"not a pickle")])
        cache._quarantine_record("corrupt", cache._load_pack_index()["corrupt"])
        names = {p.name for p in cache.quarantine_path.iterdir()}
        assert names == {"corrupt.pack-record"}
        record = cache.quarantine_path / "corrupt.pack-record"
        assert record.read_bytes() == b"not a pickle"
        assert cache.quarantine_evictions == 1

    def test_eviction_count_reaches_fault_line(self, tmp_path):
        from repro.cli import render_stats

        with BatchRunner(cache_dir=tmp_path) as runner:
            runner.disk.quarantine_evictions = 4
            lines = render_stats(runner)
        fault_lines = [line for line in lines if line.startswith("[fault]")]
        assert fault_lines and "4 quarantine eviction(s)" in fault_lines[0]

