"""Tests for the batch execution layer: the persistent worker pool,
cost-aware scheduling, the two-tier cache, parallelism and dedup."""

from __future__ import annotations

import pickle
import sys
import threading
import zlib

import pytest

from repro.scenarios import ScenarioSpec, TraceSpec
from repro.sim import batch
from repro.sim.batch import (
    MANIFEST_NAME,
    BatchRunner,
    DiskCache,
    estimate_cost,
    get_runner,
    plan_chunks,
)


def tiny_specs() -> list[ScenarioSpec]:
    """A small but non-trivial batch: two managers x two seeds."""
    base = ScenarioSpec(
        workload="memcached",
        trace=TraceSpec.constant(0.6, 15.0),
        manager="static-big",
    )
    return list(base.sweep(manager=["static-big", "octopus-man"], seed=[1, 2]))


def assert_same_results(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.spec == right.spec
        assert left.manager_stats == right.manager_stats
        assert left.result.observations == right.result.observations


class TestDeterminism:
    def test_serial_vs_two_workers_identical(self):
        """The issue's acceptance property: worker fan-out must not
        perturb results -- each worker rebuilds managers from factories,
        so a run stays a pure function of its spec."""
        specs = tiny_specs()
        serial = BatchRunner(jobs=1).run(specs)
        with BatchRunner(jobs=2) as parallel_runner:
            parallel = parallel_runner.run(specs)
        assert_same_results(serial, parallel)

    def test_order_preserved(self):
        specs = tiny_specs()
        with BatchRunner(jobs=2) as runner:
            outcomes = runner.run(specs)
        assert [o.spec for o in outcomes] == specs

    def test_duplicate_specs_run_once_and_fan_out(self):
        spec = tiny_specs()[0]
        runner = BatchRunner()
        outcomes = runner.run([spec, spec, spec])
        assert runner.cache_misses == 1
        assert_same_results([outcomes[0]], [outcomes[1]])
        assert_same_results([outcomes[0]], [outcomes[2]])

    def test_persistent_pool_path_byte_identical_to_serial(self):
        """Two successive batches through one pooled runner (the shape
        of a whole ``all`` invocation through one persistent pool) are
        byte-identical to fresh serial runs."""
        specs = tiny_specs()
        serial = BatchRunner(jobs=1).run(specs)
        with BatchRunner(jobs=2) as runner:
            first = runner.run(specs[:2])
            second = runner.run(specs)  # [0:2] now from the LRU tier
        assert_same_results(serial[:2], first)
        assert_same_results(serial, second)


class TestPersistentPool:
    def test_pool_reused_across_run_calls(self):
        specs = tiny_specs()
        with BatchRunner(jobs=2, memory_entries=0) as runner:
            runner.run(specs[:2])
            first_pool = runner._pool
            assert first_pool is not None
            runner.run(specs[2:])
            assert runner._pool is first_pool
            assert runner.pool_spawns == 1
            assert runner.pool_workers == 2

    def test_no_pool_for_serial_runner(self):
        runner = BatchRunner(jobs=1)
        runner.run(tiny_specs()[:1])
        assert runner._pool is None and runner.pool_spawns == 0
        assert runner.pool_workers == 0

    def test_close_shuts_pool_down_and_is_idempotent(self):
        runner = BatchRunner(jobs=2)
        runner.run(tiny_specs()[:2])
        assert runner._pool is not None
        runner.close()
        assert runner._pool is None
        runner.close()  # idempotent

    def test_context_manager_closes(self):
        with BatchRunner(jobs=2) as runner:
            runner.run(tiny_specs()[:2])
            assert runner._pool is not None
        assert runner._pool is None

    def test_single_spec_runs_in_process_until_pool_exists(self):
        """One pending spec is not worth a pool spawn; once workers are
        warm they are used."""
        specs = tiny_specs()
        with BatchRunner(jobs=2, memory_entries=0) as runner:
            runner.run([specs[0]])
            assert runner.pool_spawns == 0
            runner.run(specs)  # >1 pending: pool spawns
            assert runner.pool_spawns == 1


class TestMemoryTier:
    def test_repeat_dispatch_hits_memory_without_cache_dir(self):
        specs = tiny_specs()
        runner = BatchRunner()
        first = runner.run(specs)
        assert runner.cache_misses == len(specs)
        second = runner.run(specs)
        assert runner.memory_hits == len(specs)
        assert runner.cache_misses == len(specs)  # nothing recomputed
        assert_same_results(first, second)

    @pytest.mark.parametrize(
        "with_cache_dir", [False, True], ids=["memory-only", "with-cache-dir"]
    )
    def test_warm_fleet_redispatch_is_lookups_only(
        self, with_cache_dir, tmp_path, monkeypatch
    ):
        """Re-dispatching a fleet's node specs serves every spec from
        the memory tier: no disk read, no engine run, and no fingerprint
        recomputation (the key is memoized on the spec object)."""
        from repro.scenarios import DEFAULT_REGISTRY
        from repro.scenarios import spec as spec_module

        fleet = DEFAULT_REGISTRY.build(
            "fleet-diurnal",
            workload="memcached",
            n_nodes=8,
            balancer="round-robin",
            quick=True,
        )
        specs = list(fleet.node_specs())
        runner = BatchRunner(cache_dir=tmp_path if with_cache_dir else None)
        first = runner.run(specs)
        memory_hits = runner.memory_hits
        disk_hits, misses = runner.disk_hits, runner.cache_misses

        calls = []
        key_skeleton = spec_module._key_skeleton

        def spy(*args):
            calls.append(args)
            return key_skeleton(*args)

        monkeypatch.setattr(spec_module, "_key_skeleton", spy)
        second = runner.run(specs)
        assert runner.memory_hits - memory_hits == len(specs)
        assert (runner.disk_hits, runner.cache_misses) == (disk_hits, misses)
        assert calls == []
        assert_same_results(first, second)
        # The spy does see a fingerprint that is actually computed.
        specs[0].with_(seed=specs[0].seed + 1).fingerprint()
        assert calls

    def test_memory_tier_can_be_disabled(self):
        spec = tiny_specs()[0]
        runner = BatchRunner(memory_entries=0)
        runner.run([spec])
        runner.run([spec])
        assert runner.cache_misses == 2 and runner.memory_hits == 0

    def test_lru_evicts_beyond_capacity(self):
        specs = tiny_specs()
        runner = BatchRunner(memory_entries=2)
        runner.run(specs)  # 4 unique specs through a 2-entry LRU
        assert len(runner._memory) == 2
        # The two most recent stay; the two oldest recompute.
        runner.run(specs[2:])
        assert runner.memory_hits == 2

    def test_size_bound_evicts_oldest_but_keeps_newest(self):
        """The observation-weighted bound caps resident outcomes even
        when the entry count is nowhere near its limit -- but never
        evicts the entry just inserted."""
        specs = tiny_specs()  # 15 observations per outcome
        runner = BatchRunner(memory_observations=20)
        runner.run(specs)
        assert len(runner._memory) == 1  # any second entry busts 20 obs
        assert runner._memory_weight == 15
        # The survivor is the most recently stored outcome.
        (key,) = runner._memory
        assert key == specs[-1].fingerprint()

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="memory_entries"):
            BatchRunner(memory_entries=-1)
        with pytest.raises(ValueError, match="memory_observations"):
            BatchRunner(memory_observations=-1)


class TestDiskCache:
    def test_second_run_hits_cache(self, tmp_path):
        specs = tiny_specs()
        cold = BatchRunner(cache_dir=tmp_path)
        first = cold.run(specs)
        assert cold.cache_misses == len(specs)
        assert cold.cache_hits == 0

        warm = BatchRunner(cache_dir=tmp_path)
        second = warm.run(specs)
        assert warm.cache_hits == len(specs)
        assert warm.disk_hits == len(specs)
        assert warm.cache_misses == 0
        assert_same_results(first, second)

    def test_cache_keyed_by_fingerprint(self, tmp_path):
        spec = tiny_specs()[0]
        BatchRunner(cache_dir=tmp_path).run([spec])
        assert (tmp_path / MANIFEST_NAME).exists()
        assert list(DiskCache(tmp_path)._load_pack_index()) == [spec.fingerprint()]
        assert not list(tmp_path.glob("*.pkl"))

    def test_changed_spec_misses(self, tmp_path):
        runner = BatchRunner(cache_dir=tmp_path)
        spec = tiny_specs()[0]
        runner.run([spec])
        runner.run([spec.with_(seed=99)])
        assert runner.cache_misses == 2

    def test_warm_start_reads_manifest_not_per_key_files(self, tmp_path):
        """The pack is the whole disk tier: a warm start serves every
        spec from it, and the cache dir holds nothing but the pack."""
        specs = tiny_specs()
        first = BatchRunner(cache_dir=tmp_path).run(specs)
        assert sorted(path.name for path in tmp_path.iterdir()) == [MANIFEST_NAME]
        warm = BatchRunner(cache_dir=tmp_path)
        second = warm.run(specs)
        assert warm.cache_hits == len(specs) and warm.cache_misses == 0
        assert warm.disk_hits == len(specs)
        assert_same_results(first, second)


class TestCacheCorruption:
    def test_corrupt_entry_in_both_tiers_recomputed(self, tmp_path):
        """A pack with no well-formed record serves a miss; the recompute
        replaces the garbage and is loadable again."""
        spec = tiny_specs()[0]
        runner = BatchRunner(cache_dir=tmp_path)
        (original,) = runner.run([spec])
        (tmp_path / MANIFEST_NAME).write_bytes(b"garbage with no header\n")

        recovered = BatchRunner(cache_dir=tmp_path)
        (outcome,) = recovered.run([spec])
        assert recovered.cache_misses == 1
        assert_same_results([original], [outcome])
        # The entry was rewritten and is loadable again.
        reloaded = DiskCache(tmp_path).load(spec.fingerprint())
        assert reloaded is not None and reloaded.spec == spec

    def test_scribbled_pack_record_quarantined(self, tmp_path, capsys):
        """A bit-rotted manifest record is copied to quarantine/ and the
        spec recomputes to the same bytes."""
        spec = tiny_specs()[0]
        (original,) = BatchRunner(cache_dir=tmp_path).run([spec])
        manifest = tmp_path / MANIFEST_NAME
        data = bytearray(manifest.read_bytes())
        # Scribble into the record payload, past its header line.
        data[len(data) // 2] ^= 0xFF
        manifest.write_bytes(bytes(data))

        runner = BatchRunner(cache_dir=tmp_path, memory_entries=0)
        (outcome,) = runner.run([spec])
        assert runner.cache_misses == 1
        assert_same_results([original], [outcome])
        assert runner.disk.corrupt_entries == 1
        records = list((tmp_path / "quarantine").glob("*.pack-record"))
        assert len(records) == 1
        assert "quarantined corrupt manifest record" in capsys.readouterr().err

    def test_truncated_manifest_tail_keeps_valid_prefix(self, tmp_path):
        """A crashed writer leaves a half-record tail; records before it
        stay readable and the tail is ignored."""
        specs = tiny_specs()[:2]
        first = BatchRunner(cache_dir=tmp_path).run(specs)
        manifest = tmp_path / MANIFEST_NAME
        with manifest.open("ab") as fh:
            fh.write(b"deadbeef 999999\ntruncated-payload")
        warm = BatchRunner(cache_dir=tmp_path)
        second = warm.run(specs)
        assert warm.cache_hits == len(specs)
        assert_same_results(first, second)


def pickled(outcomes) -> list[tuple[str, bytes]]:
    return [
        (outcome.spec.fingerprint(), pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        for outcome in outcomes
    ]


class TestWellFormedPrefix:
    """The pack is its longest well-formed prefix, and every append
    starts at the end of it."""

    def test_append_after_torn_tail_is_served(self, tmp_path):
        """A crashed writer's torn record must not hide what is appended
        after it: the appender truncates the torn tail first."""
        specs = tiny_specs()[:3]
        first = BatchRunner(cache_dir=tmp_path).run(specs[:2])
        with (tmp_path / MANIFEST_NAME).open("ab") as fh:
            fh.write(b"crashed-writer 999999 12345\nhalf-a-payload")
        (last,) = BatchRunner(cache_dir=tmp_path).run(specs[2:])
        fresh = DiskCache(tmp_path)
        served = [fresh.load(spec.fingerprint()) for spec in specs]
        assert all(outcome is not None for outcome in served)
        assert_same_results(first + [last], served)
        assert b"crashed-writer" not in fresh.manifest_path.read_bytes()
        assert fresh.corrupt_entries == 0
        fresh.close()

    def test_pre_checksum_head_truncated_and_recomputed_once(
        self, tmp_path, monkeypatch
    ):
        """A pre-checksum ``key size`` record ends the prefix, so the
        checksummed records behind it are misses; the recompute's
        append truncates them away, and the next run hits everything."""
        specs = tiny_specs()[:2]
        old, behind = pickled(BatchRunner().run(specs))
        crc = zlib.crc32(behind[1])
        (tmp_path / MANIFEST_NAME).write_bytes(
            f"{old[0]} {len(old[1])}\n".encode()
            + old[1]
            + f"{behind[0]} {len(behind[1])} {crc}\n".encode()
            + behind[1]
        )
        executed: list[str] = []
        real_execute = batch.execute_scenario

        def counting_execute(spec):
            executed.append(spec.fingerprint())
            return real_execute(spec)

        monkeypatch.setattr(batch, "execute_scenario", counting_execute)
        BatchRunner(cache_dir=tmp_path).run(specs)
        assert sorted(executed) == sorted(spec.fingerprint() for spec in specs)
        data = (tmp_path / MANIFEST_NAME).read_bytes()
        assert data.split(b"\n", 1)[0].count(b" ") == 2  # checksummed head
        executed.clear()
        warm = BatchRunner(cache_dir=tmp_path)
        warm.run(specs)
        assert executed == [] and warm.cache_misses == 0

    def test_record_appended_by_another_cache_is_served(self, tmp_path):
        """A reader whose index predates another handle's append syncs
        forward on the miss instead of serving it as one."""
        a, b = pickled(BatchRunner().run(tiny_specs()[:2]))
        writer = DiskCache(tmp_path)
        writer.store_many([a])
        reader = DiskCache(tmp_path)
        assert reader.load(a[0]) is not None  # index built here
        writer.store_many([b])
        served = reader.load(b[0])
        assert served is not None and served.spec.fingerprint() == b[0]
        reader.close()


class TestManifestCompaction:
    """DiskCache.close() rewrites the pack once dead bytes accumulate."""

    @pytest.fixture
    def eager(self, monkeypatch):
        """Compact on close as soon as any byte is dead."""
        monkeypatch.setattr(batch, "COMPACT_MIN_DEAD_BYTES", 1)
        monkeypatch.setattr(batch, "COMPACT_DEAD_FRACTION", 0.0)

    def read_pack_payload(self, cache_dir, key: str) -> bytes:
        """A key's payload read straight from the pack (fresh index)."""
        cache = DiskCache(cache_dir)
        offset, size, _crc = cache._load_pack_index()[key]
        with cache.manifest_path.open("rb") as fh:
            fh.seek(offset)
            return fh.read(size)

    def test_duplicate_appends_compact_away_on_close(self, tmp_path, eager):
        cache = DiskCache(tmp_path)
        payloads = [(f"key{i:02d}", f"payload-{i}".encode() * 20) for i in range(8)]
        cache.store_many(payloads)
        cache.store_many(payloads)  # racing-appender duplicates: all dead
        dead_before, size_before = cache.dead_pack_bytes()
        assert dead_before > 0
        cache.close()
        assert cache.compactions == 1
        dead_after, size_after = DiskCache(tmp_path).dead_pack_bytes()
        assert dead_after == 0
        assert size_after < size_before
        for key, payload in payloads:
            assert self.read_pack_payload(tmp_path, key) == payload

    def test_malformed_tail_counts_as_dead_and_is_dropped(self, tmp_path, eager):
        cache = DiskCache(tmp_path)
        cache.store_many([("alive", b"x" * 64)])
        with cache.manifest_path.open("ab") as fh:
            fh.write(b"crashed-writer 999999\nhalf-a-payload")
        cache.close()
        assert cache.compactions == 1
        assert self.read_pack_payload(tmp_path, "alive") == b"x" * 64
        assert b"crashed-writer" not in cache.manifest_path.read_bytes()

    def test_below_threshold_pack_left_untouched(self, tmp_path):
        cache = DiskCache(tmp_path)  # default thresholds (64 KiB dead)
        cache.store_many([(f"k{i}", b"y" * 100) for i in range(5)])
        before = cache.manifest_path.read_bytes()
        cache.close()
        assert cache.compactions == 0
        assert cache.manifest_path.read_bytes() == before

    def test_all_dead_threshold_respects_fraction(self, tmp_path, monkeypatch):
        """A big pack with little dead weight is not worth rewriting."""
        monkeypatch.setattr(batch, "COMPACT_MIN_DEAD_BYTES", 1)
        monkeypatch.setattr(batch, "COMPACT_DEAD_FRACTION", 0.5)
        cache = DiskCache(tmp_path)
        cache.store_many([(f"k{i}", b"z" * 1000) for i in range(10)])
        cache.store_many([("k0", b"z" * 1000)])  # ~9% dead
        cache.close()
        assert cache.compactions == 0

    def test_compacted_cache_still_serves_batch_runner(self, tmp_path, eager):
        """End to end: duplicate outcome appends, an eager close, then a
        fresh runner warm-starts everything from the compacted pack."""
        specs = tiny_specs()
        runner = BatchRunner(cache_dir=tmp_path)
        first = runner.run(specs)
        # Duplicate the appends (what a racing runner doing the same
        # sweep leaves behind), then close -> compaction.
        import pickle as pickle_mod

        runner._disk.store_many(
            [
                (
                    spec.fingerprint(),
                    pickle_mod.dumps(outcome, pickle_mod.HIGHEST_PROTOCOL),
                )
                for spec, outcome in zip(specs, first)
            ]
        )
        assert runner.disk.dead_pack_bytes()[0] > 0
        runner.close()
        assert runner.disk.compactions == 1
        warm = BatchRunner(cache_dir=tmp_path)
        replay = warm.run(specs)
        assert warm.cache_hits == len(specs) and warm.cache_misses == 0
        assert_same_results(first, replay)

    def test_version_stranded_records_reclaimed(self, tmp_path, eager):
        """Records from a retired cache-format generation are the
        *latest* for their (old-prefix) key, so latest-wins indexing
        alone would keep them alive forever; the live prefix lets
        compaction classify and reclaim them.  Bare v1 keys were only
        ever written as pre-checksum ``key size`` records, which end the
        well-formed prefix and fall away at the next append."""
        from repro.scenarios.spec import SCHEMA_VERSION, cache_key_prefix

        prefix = cache_key_prefix()
        bare_v1 = [(f"{i:024d}", b"bare" * 40) for i in range(3)]
        (tmp_path / MANIFEST_NAME).write_bytes(
            b"".join(
                f"{key} {len(payload)}\n".encode() + payload
                for key, payload in bare_v1
            )
        )
        cache = DiskCache(tmp_path)
        stranded = [(f"s1-old-kernel-{i:024d}", b"old" * 50) for i in range(6)]
        current = [(f"{prefix}{i:024d}", b"new" * 50) for i in range(4)]
        # Equal-or-newer generations must survive: a same-schema kernel
        # variant (ordering unknowable) and a newer build sharing the
        # directory.
        peers = [(f"s{SCHEMA_VERSION}-other-kernel-" + "9" * 24, b"peer" * 40)]
        newer = [("s99-future-" + "8" * 24, b"next" * 40)]
        cache.store_many(stranded)
        cache.store_many(current)
        cache.store_many(peers)
        cache.store_many(newer)
        assert b"bare" not in cache.manifest_path.read_bytes()
        dead, _ = cache.dead_pack_bytes()
        assert dead > 0, "stranded records must count as dead"
        cache.close()
        assert cache.compactions == 1
        index = DiskCache(tmp_path)._load_pack_index()
        survivors = current + peers + newer
        assert sorted(index) == sorted(key for key, _ in survivors)
        for key, payload in survivors:
            assert self.read_pack_payload(tmp_path, key) == payload

    def test_runner_disk_cache_carries_current_prefix(self, tmp_path):
        from repro.scenarios.spec import cache_key_prefix

        runner = BatchRunner(cache_dir=tmp_path)
        assert runner.disk.live_prefix == cache_key_prefix()
        spec = tiny_specs()[0]
        assert spec.fingerprint().startswith(cache_key_prefix())

    def test_stale_index_after_foreign_compaction_serves_right_key(
        self, tmp_path, eager
    ):
        """A reader whose cached index predates another process's
        compaction must never serve the wrong outcome.

        Engineered worst case: equal-length keys and equal-sized
        payloads, so the stale offset of one key lands exactly on the
        other key's payload in the compacted pack and unpickles
        cleanly -- only the identity check can catch it."""
        import pickle as pickle_mod

        spec_a, spec_b = tiny_specs()[:2]
        key_a, key_b = spec_a.fingerprint(), spec_b.fingerprint()
        outcome_a, outcome_b = BatchRunner().run([spec_a, spec_b])
        raw_a = pickle_mod.dumps(outcome_a, pickle_mod.HIGHEST_PROTOCOL)
        raw_b = pickle_mod.dumps(outcome_b, pickle_mod.HIGHEST_PROTOCOL)
        # Pad to a common size: pickle.loads ignores trailing bytes, so
        # both records stay decodable and perfectly aligned.
        size = max(len(raw_a), len(raw_b))
        payload_a, payload_b = raw_a.ljust(size, b"\0"), raw_b.ljust(size, b"\0")

        writer = DiskCache(tmp_path)
        writer.store_many([(key_a, payload_a)])  # dies at compaction...
        writer.store_many([(key_b, payload_b)])
        writer.store_many([(key_a, payload_a)])  # ...superseded by this
        reader = DiskCache(tmp_path)
        reader._load_pack_index()  # snapshot the pre-compaction offsets
        DiskCache(tmp_path).close()  # foreign compaction

        # Stale key_b offset == compacted key_a payload offset: without
        # the identity check this returns outcome_a for key_b.
        served = reader.load(key_b)
        assert served is not None
        assert served.spec.fingerprint() == key_b
        assert served.result.observations == outcome_b.result.observations
        also = reader.load(key_a)
        assert also is not None and also.spec.fingerprint() == key_a

    def test_racing_appenders_lose_nothing_to_compaction(self, tmp_path, eager):
        """Appenders, each with its own index, running while another
        handle compacts: the inode re-check after flock and the forward
        sync before each truncate-and-append keep every record
        reachable."""
        errors: list[BaseException] = []
        per_thread = 40

        def append(thread_id: int):
            try:
                cache = DiskCache(tmp_path)
                for i in range(per_thread):
                    cache.store_many(
                        [(f"t{thread_id}-{i:03d}", f"{thread_id}:{i}".encode())]
                    )
                cache.close()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def compact_repeatedly():
            try:
                for _ in range(25):
                    compactor = DiskCache(tmp_path)
                    # Dead weight so every close really rewrites.
                    compactor.store_many([("churn", b"c" * 64)] * 2)
                    compactor.close()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=append, args=(t,)) for t in range(3)
        ] + [threading.Thread(target=compact_repeatedly)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        index = DiskCache(tmp_path)._load_pack_index()
        for thread_id in range(3):
            for i in range(per_thread):
                key = f"t{thread_id}-{i:03d}"
                assert key in index, f"{key} lost during compaction"
                assert (
                    self.read_pack_payload(tmp_path, key)
                    == f"{thread_id}:{i}".encode()
                )

    def test_append_after_compaction_that_reuses_the_inode(self, tmp_path):
        """A foreign compaction may give the new pack the old inode
        number.  An appender whose known end then falls mid-record must
        rescan, not truncate the new pack there."""
        writer = DiskCache(tmp_path)
        writer.store_many([("a", b"x" * 10)])
        # Rewrite in place (same inode): the first record spans the
        # writer's known end, and its payload's newlines make a scan
        # from that end stop at once.
        with writer.manifest_path.open("r+b") as fh:
            fh.truncate(0)
            for key, payload in (("b", b"y\n" * 20), ("c", b"z" * 5)):
                fh.write(f"{key} {len(payload)} {zlib.crc32(payload)}\n".encode())
                fh.write(payload)
        writer.store_many([("d", b"w")])
        index = DiskCache(tmp_path)._load_pack_index()
        assert sorted(index) == ["b", "c", "d"]
        assert self.read_pack_payload(tmp_path, "b") == b"y\n" * 20


class TestConcurrentRunners:
    def test_two_runners_share_one_cache_dir(self, tmp_path):
        """Two runners racing over overlapping batches (locked manifest
        appends) must corrupt nothing and agree on every outcome."""
        specs = tiny_specs()
        results: dict[str, list] = {}
        errors: list[BaseException] = []

        def drive(name: str, batch):
            try:
                results[name] = BatchRunner(cache_dir=tmp_path).run(batch)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=("a", specs)),
            threading.Thread(target=drive, args=("b", list(reversed(specs)))),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert_same_results(results["a"], list(reversed(results["b"])))

        # The pack is intact: a fresh runner warm-starts fully from it.
        warm = BatchRunner(cache_dir=tmp_path)
        replay = warm.run(specs)
        assert warm.cache_hits == len(specs) and warm.cache_misses == 0
        assert_same_results(results["a"], replay)


class TestScheduling:
    def cheap_and_expensive(self):
        base = ScenarioSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.3, 10.0),
            manager="static-big",
        )
        cheap = [base.with_(seed=i) for i in range(6)]
        expensive = base.with_(trace=TraceSpec.constant(0.9, 600.0), seed=99)
        return cheap, expensive

    def test_cost_model_orders_by_work(self):
        cheap, expensive = self.cheap_and_expensive()
        assert estimate_cost(expensive) > 10 * estimate_cost(cheap[0])
        collocated = cheap[0].with_(batch_jobs="spec:calculix")
        assert estimate_cost(collocated) > estimate_cost(cheap[0])
        loaded = cheap[0].with_(trace=TraceSpec.constant(1.0, 10.0))
        assert estimate_cost(loaded) > estimate_cost(cheap[0])

    def test_plan_covers_every_spec_exactly_once(self):
        cheap, expensive = self.cheap_and_expensive()
        pending = [(s.fingerprint(), s) for s in cheap + [expensive]]
        chunks = plan_chunks(pending, jobs=2)
        flattened = [key for chunk in chunks for key, _ in chunk]
        assert sorted(flattened) == sorted(key for key, _ in pending)

    def test_longest_job_dispatches_first_and_alone(self):
        cheap, expensive = self.cheap_and_expensive()
        pending = [(s.fingerprint(), s) for s in cheap] + [
            (expensive.fingerprint(), expensive)
        ]
        chunks = plan_chunks(pending, jobs=2)
        assert chunks[0] == [(expensive.fingerprint(), expensive)]
        assert len(chunks) > 1  # the cheap tail is not serialized behind it

    def test_cheap_specs_share_chunks(self):
        base, _ = self.cheap_and_expensive()
        cheap = [base[0].with_(seed=i) for i in range(20)]
        pending = [(s.fingerprint(), s) for s in cheap]
        chunks = plan_chunks(pending, jobs=2)
        # Uniform costs over 2 workers x oversubscription: fewer chunks
        # than specs, i.e. chunking actually batches.
        assert len(chunks) < len(pending)

    def test_cost_model_handles_builder_default_traces(self):
        """Regression: a trace that leans on builder defaults (e.g. a
        bare diurnal) must cost-estimate via the built trace, not crash
        the parallel dispatch path with a KeyError."""
        spec = ScenarioSpec(
            workload="memcached", trace=TraceSpec("diurnal"), manager="static-big"
        )
        assert estimate_cost(spec) > 0
        assert plan_chunks([(spec.fingerprint(), spec)], jobs=2)

    def test_plan_is_deterministic(self):
        cheap, expensive = self.cheap_and_expensive()
        pending = [(s.fingerprint(), s) for s in cheap + [expensive]]
        assert plan_chunks(pending, jobs=3) == plan_chunks(pending, jobs=3)

    def test_empty_plan(self):
        assert plan_chunks([], jobs=4) == []

    def test_pinned_cost_model_plan(self):
        """The dispatch plan of a fixed mixed batch, pinned.

        The cost constants are fixed inputs to the plan: a change to
        either shows up here.  The previous file-derived model's
        fallback ``(20000, 1.12)`` plans this batch differently: it
        puts ``low-long`` first and ``high-short`` behind ``mid``."""
        base = ScenarioSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.1, 300.0),
            manager="static-big",
        )
        pending = [
            ("low-long", base),
            ("low-short", base.with_(trace=TraceSpec.constant(0.1, 60.0))),
            ("tiny-a", base.with_(trace=TraceSpec.constant(0.1, 10.0))),
            ("high-short", base.with_(trace=TraceSpec.constant(0.9, 60.0))),
            ("high-mid", base.with_(trace=TraceSpec.constant(0.9, 120.0))),
            (
                "collocated",
                base.with_(
                    trace=TraceSpec.constant(0.5, 100.0),
                    batch_jobs="spec:calculix",
                ),
            ),
            ("mid", base.with_(trace=TraceSpec.constant(0.5, 100.0))),
            ("tiny-b", base.with_(trace=TraceSpec.constant(0.1, 10.0), seed=1)),
        ]
        chunks = plan_chunks(pending, jobs=2)
        assert [[key for key, _ in chunk] for chunk in chunks] == [
            ["high-mid"],
            ["collocated"],
            ["high-short"],
            ["mid"],
            ["low-long"],
            ["low-short", "tiny-a", "tiny-b"],
        ]


class TestRunnerBasics:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            BatchRunner(jobs=0)

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError, match="ScenarioSpec"):
            BatchRunner().run(["fig1"])

    def test_results_unwraps(self):
        spec = tiny_specs()[0]
        (result,) = BatchRunner().results([spec])
        assert result.manager_name == "static-big"

    def test_get_runner_default_is_serial_uncached(self):
        runner = get_runner(None)
        assert runner.jobs == 1 and runner.cache_dir is None
        shared = BatchRunner(jobs=3)
        assert get_runner(shared) is shared


class TestExperimentEquivalence:
    """A figure module must produce the same artifact through a parallel
    cached runner as through the default serial path."""

    def test_fig9_serial_vs_parallel(self, tmp_path):
        from repro.experiments import fig09_learning_time

        serial = fig09_learning_time.run(quick=True)
        with BatchRunner(jobs=2, cache_dir=tmp_path) as runner:
            parallel = fig09_learning_time.run(quick=True, runner=runner)
        assert serial.render() == parallel.render()

    def test_calibrate_probes_share_cache(self, tmp_path):
        from repro.experiments.calibration import edge_tail_ms
        from repro.hardware.juno import juno_r1
        from repro.workloads.memcached import memcached

        runner = BatchRunner(cache_dir=tmp_path)
        first = edge_tail_ms(
            juno_r1(), memcached(), duration_s=30.0, seed=3, runner=runner
        )
        second = edge_tail_ms(
            juno_r1(), memcached(), duration_s=30.0, seed=3, runner=runner
        )
        assert first == second
        assert runner.cache_hits == 1
