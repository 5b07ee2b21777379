"""The columnar observation store: table <-> row round-trips, slim
versioned cache payloads, legacy-payload rejection, and the pinned
cache keys of the storage-format bump.

The struct-of-arrays :class:`~repro.sim.records.ObservationTable`
replaced the tuple-of-dataclasses result representation
(``SCHEMA_VERSION`` 1 -> 2); these tests pin the contract that made the
swap safe:

* a table materializes back into exactly the rows that built it
  (property-tested over adversarial float values);
* pickled payloads carry four typed blocks (small, fast to decode;
  ``STORAGE_VERSION`` 3), never per-interval dataclass objects, and
  are stamped with
  ``STORAGE_VERSION`` -- foreign-version payloads raise on load and the
  outcome cache treats them as misses;
* the fingerprint (cache-key) change of the format bump is pinned in
  both directions, so a silent ``SCHEMA_VERSION`` drift cannot
  resurrect stale cache entries.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_reference import append_row, table_from_rows
from repro.fleet.spec import FleetSpec
from repro.hardware.topology import Configuration
from repro.policies.base import Decision
from repro.scenarios import ScenarioSpec, TraceSpec
from repro.cli import main
from repro.sim import batch
from repro.sim.batch import BatchRunner, DiskCache
from repro.sim.queueing import KERNEL_VERSION
from repro.sim.records import (
    BLOCKS,
    BOOL_FIELDS,
    FLOAT_FIELDS,
    INT_FIELDS,
    POOLED_FIELDS,
    SCALAR_FIELDS,
    STORAGE_VERSION,
    ExperimentResult,
    IntervalObservation,
    ObservationRowView,
    ObservationTable,
)

DECISIONS = (
    Decision(
        config=Configuration(2, 0, 1.15, None),
        big_freq_ghz=1.15,
        small_freq_ghz=0.65,
        run_batch=False,
    ),
    Decision(
        config=Configuration(0, 4, None, 0.65),
        big_freq_ghz=1.15,
        small_freq_ghz=0.65,
        run_batch=True,
    ),
)

LABELS = ("2B-1.15", "4S-0.65", "2B2S-0.90")

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, allow_subnormal=True, width=64
)


@st.composite
def observations(draw, index: int = 0) -> IntervalObservation:
    fields: dict = {name: draw(finite_floats) for name in FLOAT_FIELDS}
    for name in INT_FIELDS:
        fields[name] = draw(st.integers(min_value=-(2**53), max_value=2**53))
    for name in BOOL_FIELDS:
        fields[name] = draw(st.booleans())
    fields["index"] = index
    fields["decision"] = draw(st.sampled_from(DECISIONS))
    fields["config_label"] = draw(st.sampled_from(LABELS))
    return IntervalObservation(**fields)


def sample_result(n: int = 7, seed: int = 0) -> ExperimentResult:
    """A deterministic hand-built result (no engine run needed)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        fields: dict = {name: float(rng.normal()) for name in FLOAT_FIELDS}
        for name in INT_FIELDS:
            fields[name] = int(rng.integers(0, 1000))
        for name in BOOL_FIELDS:
            fields[name] = bool(rng.random() < 0.5)
        fields["index"] = i
        fields["t_start_s"] = float(i)
        fields["decision"] = DECISIONS[i % len(DECISIONS)]
        fields["config_label"] = LABELS[i % len(LABELS)]
        rows.append(IntervalObservation(**fields))
    return ExperimentResult(
        table_from_rows(rows),
        workload_name="memcached",
        manager_name="static-big",
        target_latency_ms=500.0,
        interval_s=1.0,
    )


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_table_row_round_trip_is_exact(self, data):
        """Property: table_from_rows . rows == identity, bit for bit
        (dataclass equality plus exact reprs, which see -0.0 and every
        last ulp)."""
        n = data.draw(st.integers(min_value=1, max_value=12))
        rows = tuple(
            data.draw(observations(index=i), label=f"row{i}") for i in range(n)
        )
        table = table_from_rows(rows)
        back = table.rows()
        assert back == rows
        for a, b in zip(back, rows):
            for name in FLOAT_FIELDS + INT_FIELDS + BOOL_FIELDS:
                assert repr(getattr(a, name)) == repr(getattr(b, name))
            assert a.decision is b.decision
            assert a.config_label is b.config_label

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_pickle_round_trip_is_exact(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        rows = tuple(
            data.draw(observations(index=i), label=f"row{i}") for i in range(n)
        )
        table = table_from_rows(rows)
        clone = pickle.loads(pickle.dumps(table, pickle.HIGHEST_PROTOCOL))
        assert clone.rows() == rows

    def test_row_views_read_python_scalars(self):
        result = sample_result()
        view = result.table.view(3)
        assert isinstance(view, ObservationRowView)
        row = result.observations[3]
        for name in FLOAT_FIELDS:
            value = getattr(view, name)
            assert type(value) is float and value == getattr(row, name)
        for name in INT_FIELDS:
            assert type(getattr(view, name)) is int
        for name in BOOL_FIELDS:
            assert type(getattr(view, name)) is bool
        assert view.decision is row.decision
        assert view.config_label == row.config_label
        assert view.materialize() == row


class TestTableBehaviour:
    def test_pools_dictionary_encode(self):
        result = sample_result(n=9)
        table = result.table
        assert len(table.decision_pool) == len(DECISIONS)
        assert len(table.label_pool) == len(LABELS)
        assert table.labels() == result.config_labels

    def test_columns_are_read_only_views(self):
        result = sample_result()
        for accessor in ("tails_ms", "powers_w", "loads", "times_s"):
            column = getattr(result, accessor)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        # ...and repeated access returns the same buffer, not a rebuild.
        assert result.tails_ms is result.tails_ms

    def test_capacity_is_enforced(self):
        table = ObservationTable(1)
        row = sample_result(n=2).observations
        append_row(table, row[0])
        with pytest.raises(IndexError, match="capacity"):
            append_row(table, row[1])

    def test_pickling_a_live_table_does_not_freeze_it(self):
        """Snapshotting (pickle/deepcopy) a mid-build table must not
        mutate the source: later appends still work and the snapshot
        holds only the rows appended so far."""
        import copy

        rows = sample_result(n=3).observations
        table = ObservationTable(3)
        append_row(table, rows[0])
        snapshot = pickle.loads(pickle.dumps(table))
        deep = copy.deepcopy(table)
        append_row(table, rows[1])  # must not raise
        append_row(table, rows[2])
        assert snapshot.rows() == rows[:1]
        assert deep.rows() == rows[:1]
        assert table.freeze().rows() == rows

    def test_frozen_table_rejects_appends(self):
        result = sample_result(n=2)
        with pytest.raises(RuntimeError, match="frozen"):
            append_row(result.table, result.observations[0])

    def test_partial_fill_freezes_to_length(self):
        rows = sample_result(n=5).observations
        table = ObservationTable(10)
        for row in rows[:3]:
            append_row(table, row)
        table.freeze()
        assert len(table) == 3
        assert table.rows() == rows[:3]

    def test_take_preserves_rows_and_pools(self):
        result = sample_result(n=8)
        taken = result.table.take(np.array([1, 5, 2]))
        assert taken.rows() == tuple(
            result.observations[i] for i in (1, 5, 2)
        )

    def test_slice_matches_row_filtering(self):
        result = sample_result(n=8)
        sliced = result.slice(2.0, 6.0)
        assert sliced.observations == tuple(
            o for o in result.observations if 2.0 <= o.t_start_s < 6.0
        )
        with pytest.raises(ValueError, match="at least one interval"):
            result.slice(1e9)

    def test_empty_result_rejected_in_both_forms(self):
        meta = dict(
            workload_name="x",
            manager_name="y",
            target_latency_ms=1.0,
            interval_s=1.0,
        )
        with pytest.raises(ValueError, match="at least one interval"):
            ExperimentResult(table_from_rows([]), **meta)
        with pytest.raises(ValueError, match="at least one interval"):
            ExperimentResult(ObservationTable(0), **meta)


class TestVersionedPayloads:
    def test_payload_is_columnar_not_per_interval_objects(self):
        """The cache payload must never contain pickled per-interval
        dataclasses again -- that is the decode bottleneck the format
        bump removed."""
        result = sample_result(n=50)
        payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        assert b"IntervalObservation" not in payload
        clone = pickle.loads(payload)
        assert clone.observations == result.observations
        assert clone.workload_name == result.workload_name
        assert clone.interval_s == result.interval_s

    def test_materialized_rows_are_not_pickled(self):
        """Touching ``observations`` before pickling must not fatten the
        payload with the memoized dataclass rows."""
        result = sample_result(n=50)
        cold = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        result.observations  # materialize the memo
        warm = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        assert len(warm) == len(cold)

    def test_legacy_result_payload_rejected(self):
        """A pre-columnar pickle (instance ``__dict__`` with an
        ``_observations`` tuple) must raise on load, not resurrect a
        half-compatible object."""
        legacy_state = {
            "_observations": sample_result(n=2).observations,
            "workload_name": "memcached",
            "manager_name": "static-big",
            "target_latency_ms": 500.0,
            "interval_s": 1.0,
        }

        class LegacyPickle:
            """Pickles exactly like a pre-bump ExperimentResult: new the
            object, then BUILD with the legacy state dict."""

            def __reduce__(self):
                return (
                    ExperimentResult.__new__,
                    (ExperimentResult,),
                    legacy_state,
                )

        payload = pickle.dumps(LegacyPickle())
        with pytest.raises(ValueError, match="storage"):
            pickle.loads(payload)
        with pytest.raises(ValueError, match="storage"):
            ExperimentResult.__new__(ExperimentResult).__setstate__(legacy_state)

    def test_foreign_table_version_rejected(self):
        table = sample_result(n=2).table
        state = table.__getstate__()
        state["storage"] = STORAGE_VERSION + 1
        with pytest.raises(ValueError, match="storage format"):
            ObservationTable.__new__(ObservationTable).__setstate__(state)

    def test_cache_treats_legacy_payload_as_miss_and_quarantines_it(self, tmp_path):
        """End to end: a legacy payload planted as a pack record under a
        current cache key is rejected on decode, quarantined, and
        recomputed."""
        spec = ScenarioSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.5, 10.0),
            manager="static-big",
        )
        fresh = spec.run()
        legacy_state = {
            "_observations": fresh.result.observations,
            "workload_name": fresh.result.workload_name,
            "manager_name": fresh.result.manager_name,
            "target_latency_ms": fresh.result.target_latency_ms,
            "interval_s": fresh.result.interval_s,
        }

        class LegacyPickle:
            def __reduce__(self):
                return (
                    ExperimentResult.__new__,
                    (ExperimentResult,),
                    legacy_state,
                )

        key = spec.fingerprint()
        DiskCache(tmp_path).store_many([(key, pickle.dumps(LegacyPickle()))])
        runner = BatchRunner(cache_dir=tmp_path, memory_entries=0)
        assert runner._cache_load(key) is None
        assert runner.disk.corrupt_entries == 1
        assert (runner.disk.quarantine_path / f"{key}.pack-record").exists()
        (outcome,) = runner.run([spec])
        assert runner.cache_misses == 1
        assert outcome.result.observations == fresh.result.observations


class TestBlockPayload:
    """Format v3: each column is a row of one C-contiguous 2-D block per
    dtype, and a table pickles as exactly those four buffers."""

    @staticmethod
    def out_of_band(table: ObservationTable) -> list[pickle.PickleBuffer]:
        buffers: list[pickle.PickleBuffer] = []
        pickle.dumps(table, protocol=5, buffer_callback=buffers.append)
        return buffers

    def assert_block_backed(self, table: ObservationTable) -> None:
        blocks = table.__getstate__()["blocks"]
        assert [block.dtype for block in blocks] == [
            np.dtype(dtype) for dtype, _ in BLOCKS
        ]
        for block, (_, names) in zip(blocks, BLOCKS):
            assert block.flags.c_contiguous
            assert block.shape == (len(names), len(table))
            for name in names:
                assert np.shares_memory(table.column(name), block)
        assert len(self.out_of_band(table)) == len(BLOCKS) == 4

    def test_engine_result_pickles_as_four_buffers(self):
        outcome = ScenarioSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.5, 12.0),
            manager="static-big",
        ).run()
        self.assert_block_backed(outcome.result.table)
        clone = pickle.loads(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        assert clone.result.observations == outcome.result.observations
        self.assert_block_backed(clone.result.table)

    def test_decoded_columns_are_read_only_views(self):
        table = sample_result(n=6).table
        clone = pickle.loads(pickle.dumps(table, pickle.HIGHEST_PROTOCOL))
        for name in SCALAR_FIELDS + POOLED_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                clone.column(name)[0] = 0
        with pytest.raises(RuntimeError, match="frozen"):
            append_row(clone, table.row(0))
        assert clone.rows() == table.rows()

    def test_out_of_band_buffers_round_trip(self):
        table = sample_result(n=5).table
        buffers: list[pickle.PickleBuffer] = []
        payload = pickle.dumps(table, protocol=5, buffer_callback=buffers.append)
        clone = pickle.loads(payload, buffers=buffers)
        assert clone.rows() == table.rows()

    def test_mid_build_snapshot_is_trimmed_and_block_backed(self):
        rows = sample_result(n=4).observations
        table = ObservationTable(10)
        for row in rows[:3]:
            append_row(table, row)
        snapshot = pickle.loads(pickle.dumps(table, pickle.HIGHEST_PROTOCOL))
        assert len(snapshot) == 3 and snapshot.rows() == rows[:3]
        self.assert_block_backed(snapshot)
        append_row(table, rows[3])  # the source is still live
        assert table.freeze().rows() == rows
        self.assert_block_backed(table)

    def test_extend_writes_through_the_block_views(self):
        rows = sample_result(n=3).observations
        table = ObservationTable(5)
        append_row(table, rows[0])
        columns = {name: getattr(rows[1], name) for name in SCALAR_FIELDS}
        table.extend(
            2,
            decision=rows[1].decision,
            config_label=rows[1].config_label,
            **columns,
        )
        table.freeze()
        self.assert_block_backed(table)
        assert table.rows() == (rows[0], rows[1], rows[1])

    def test_take_yields_block_backed_frozen_table(self):
        result = sample_result(n=8)
        taken = result.table.take(np.array([6, 0, 3]))
        self.assert_block_backed(taken)
        assert taken.rows() == tuple(result.observations[i] for i in (6, 0, 3))
        assert taken.decision_pool == result.table.decision_pool
        with pytest.raises(ValueError, match="read-only"):
            taken.column("power_w")[0] = 1.0

    def test_from_observations_is_block_backed(self):
        rows = sample_result(n=7).observations
        table = table_from_rows(rows)
        self.assert_block_backed(table)
        assert table.rows() == rows


class TestCacheKeyPins:
    """Cache keys pinned on both sides of the latest storage-format bump.

    ``SCHEMA_VERSION`` folds into every fingerprint, so each bump
    retires every older cache entry by key; these pins catch both a
    silent future format change (v3 keys drift) and an accidental
    rollback that would resurrect stale v2 entries (v3 keys collide
    with the retired v2 values).  On the next bump the pinned keys move
    to the retired slot and the new keys are pinned."""

    STEADY = dict(
        workload="memcached",
        trace=TraceSpec.constant(0.6, 15.0),
        manager="static-big",
    )
    COLLOCATION = dict(
        workload="websearch",
        trace=TraceSpec.diurnal(120.0),
        manager="hipster-co",
        batch_jobs="spec:lbm",
        seed=3,
    )

    #: (v3 key, retired v2 key) per pinned spec.  Scenario cache keys
    #: carry the version-legible ``s<schema>-<kernel>-`` prefix (which
    #: compaction uses to reclaim stranded records); the FleetSpec
    #: fingerprint is an identity, not a disk cache key, so it stays a
    #: bare hash (it folds ``SCHEMA_VERSION`` in too, so it moves with
    #: every bump).
    PINS = {
        "steady": (
            "s3-lindley-v1-cc2d1ba014fa8a928accf015",
            "s2-lindley-v1-49ff010b94a1bb1b5038e1c3",
        ),
        "collocation": (
            "s3-lindley-v1-95df1b30d6637c0f149fc452",
            "s2-lindley-v1-4c9ce613370ea460dff8697b",
        ),
        "fleet": (
            "210d90bb8bef75837c9ef183",
            "8fe464a0205a745695a3e711",
        ),
        "fleet-node0": (
            "s3-lindley-v1-b84433db44c11be19b5b8f72",
            "s2-lindley-v1-d53db36b5296c1b4aa15fcfc",
        ),
    }

    def _fingerprints(self) -> dict[str, str]:
        fleet = FleetSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.6, 12.0),
            manager="static-big",
            n_nodes=3,
            seed=5,
        )
        return {
            "steady": ScenarioSpec(**self.STEADY).fingerprint(),
            "collocation": ScenarioSpec(**self.COLLOCATION).fingerprint(),
            "fleet": fleet.fingerprint(),
            "fleet-node0": fleet.node_specs()[0].fingerprint(),
        }

    def test_v3_keys_pinned(self):
        for name, key in self._fingerprints().items():
            assert key == self.PINS[name][0], (
                f"{name}: cache key drifted without a documented "
                "SCHEMA_VERSION bump"
            )

    def test_v2_keys_retired(self):
        for name, key in self._fingerprints().items():
            assert key != self.PINS[name][1], (
                f"{name}: cache key collides with the retired "
                "v2 key -- stale entries would resurrect"
            )


def v2_fingerprint(spec: ScenarioSpec) -> str:
    """The cache key a version-2 build gave ``spec``: the sha256 of the
    ``repr`` of its payload, sampled floats and all."""
    payload = (
        2,
        KERNEL_VERSION,
        spec.workload,
        spec.workload_params,
        spec.trace,
        spec.manager,
        spec.manager_params,
        spec.platform,
        spec.batch_jobs,
        spec.cpuidle,
        spec.engine,
        spec.seed,
        spec.n_intervals,
    )
    digest = hashlib.sha256(repr(payload).encode()).hexdigest()[:24]
    return f"s2-{KERNEL_VERSION}-{digest}"


class Reduced:
    """Pickles as ``cls.__new__(cls)`` plus ``__setstate__(state)``, the
    shape every pickled table and result takes."""

    def __init__(self, cls, state: dict):
        self.cls, self.state = cls, state

    def __reduce__(self):
        return (self.cls.__new__, (self.cls,), self.state)


def v2_result(result: ExperimentResult) -> Reduced:
    """``result`` as a version-2 build pickled it: one array per column
    under ``"cols"``."""
    table = result.table
    table_state = {
        "storage": 2,
        "cols": {
            name: np.array(table.column(name))
            for name in SCALAR_FIELDS + POOLED_FIELDS
        },
        "decision_pool": table.decision_pool,
        "label_pool": table.label_pool,
    }
    return Reduced(
        ExperimentResult,
        {
            "storage": 2,
            "table": Reduced(ObservationTable, table_state),
            "workload_name": result.workload_name,
            "manager_name": result.manager_name,
            "target_latency_ms": result.target_latency_ms,
            "interval_s": result.interval_s,
        },
    )


class TestVersion2CacheDir:
    """A cache directory filled by a version-2 build: its records sit
    under v2 keys and carry v2 payloads, so a v3 build serves every spec
    as a miss, repopulates the directory and prints the same bytes."""

    def test_v2_fingerprint_reproduces_the_retired_pin(self):
        spec = ScenarioSpec(**TestCacheKeyPins.STEADY)
        assert v2_fingerprint(spec) == TestCacheKeyPins.PINS["steady"][1]

    @staticmethod
    def cli_stdout(capsys, argv: list[str]) -> str:
        capsys.readouterr()
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_served_as_misses_and_repopulated(self, tmp_path, capsys, monkeypatch):
        argv = ["fig6", "--quick", "--cache-dir"]
        golden = self.cli_stdout(capsys, ["fig6", "--quick"])
        fresh_dir, v2_dir = tmp_path / "fresh", tmp_path / "v2"
        assert self.cli_stdout(capsys, argv + [str(fresh_dir)]) == golden

        # Re-encode every outcome the way a version-2 build stored it.
        fresh = DiskCache(fresh_dir)
        keys = sorted(fresh._load_pack_index())
        outcomes = [fresh.load(key) for key in keys]
        fresh.close()
        planted = [
            (
                v2_fingerprint(outcome.spec),
                pickle.dumps(replace(outcome, result=v2_result(outcome.result))),
            )
            for outcome in outcomes
        ]
        assert not {key for key, _ in planted} & set(keys)
        with pytest.raises(ValueError, match="storage"):
            pickle.loads(planted[0][1])
        v2 = DiskCache(v2_dir)
        v2.store_many(planted)
        v2.close()

        executed: list[str] = []
        real_execute = batch.execute_scenario

        def counting_execute(spec):
            executed.append(spec.fingerprint())
            return real_execute(spec)

        monkeypatch.setattr(batch, "execute_scenario", counting_execute)
        assert self.cli_stdout(capsys, argv + [str(v2_dir)]) == golden
        assert sorted(executed) == keys
        # Repopulated in v3: the pack holds exactly the v3 keys beside
        # whatever stranded v2 records compaction has not reclaimed yet.
        index = DiskCache(v2_dir)._load_pack_index()
        assert sorted(set(index) - {key for key, _ in planted}) == keys
        executed.clear()
        assert self.cli_stdout(capsys, argv + [str(v2_dir)]) == golden
        assert executed == []
