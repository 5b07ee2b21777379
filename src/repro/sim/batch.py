"""Batch execution of scenarios: a persistent worker pool, cost-aware
scheduling and a two-tier outcome cache.

The :class:`BatchRunner` is the execution layer between the declarative
scenario specs (:mod:`repro.scenarios`) and the per-run engine
(:mod:`repro.sim.engine`).  Given a list of specs it

* deduplicates identical specs (figure grids often repeat a run),
* serves previously computed results from a two-tier cache -- an
  in-process LRU over an on-disk :class:`DiskCache` -- keyed by the spec
  fingerprint (which folds in the queue-kernel and schema versions, so
  code or storage-format changes invalidate stale entries),
* fans the remaining runs out over a **persistent**
  :class:`~concurrent.futures.ProcessPoolExecutor` that is created
  lazily on first use and reused across batches, so a whole
  ``hipster-repro all`` invocation pays the pool spawn (and the worker
  warm-start imports) once instead of once per experiment,
* dispatches in **longest-job-first** order through
  :class:`~repro.sim.supervise.PoolSupervisor`'s ``wait(FIRST_COMPLETED)``
  loop, using a spec cost model with two fixed constants
  (:func:`estimate_cost`), with cheap specs adaptively chunked so
  inter-process overhead amortizes, and
* returns outcomes in input order (:meth:`BatchRunner.run`) or streams
  them in completion order (:meth:`BatchRunner.iter_run`, which
  :func:`repro.fleet.aggregate.run_specs` folds into fleet outcomes
  node by node without retaining the full batch).

Completion order never affects results: every run is a pure function of
its spec (per-spec-seed determinism), so serial and pooled execution
are byte-identical.

Cache layout
------------
``cache_dir`` holds a single append-only ``manifest.pack`` of
checksummed ``<key> <size> <crc32>\\n<payload>`` records, appended under
an exclusive ``flock`` (so concurrent runners can share a directory);
later records win, and a warm start indexes the pack with one
sequential scan of its headers.  A payload is a pickled
:class:`~repro.scenarios.spec.ScenarioOutcome` whose result is a
struct-of-arrays :class:`~repro.sim.records.ObservationTable` -- four
numpy buffers per run (one 2-D block per column dtype).  Payloads of any
other storage version fail their check on load and are quarantined as
misses; the fingerprint's ``SCHEMA_VERSION`` bump keeps them from being
looked up in the first place.

The pack is its **longest well-formed prefix**: a torn tail (crashed
writer), a malformed header or a pre-checksum ``<key> <size>`` record
ends it.  Before every append the appender brings its index up to date
(scanning only what other processes appended since, and rescanning the
whole pack if that scan stops short of the end of the file), truncates
the file at the end of that prefix and writes from there, so a new
record always starts on a record boundary and a torn tail can never
hide it.

Because the pack is append-only, re-stored keys and version bumps
strand dead bytes in it; :meth:`DiskCache.close` opportunistically
**compacts** the pack (rewrites live records through an atomic
``os.replace``) once the dead fraction crosses a threshold.  Appenders
take the exclusive lock and re-verify the manifest inode afterwards, so
racing appenders and a compacting closer cannot lose records.

A runner should be closed when done (``close()`` or a ``with`` block)
to shut its worker pool down and give the disk cache its compaction
opportunity; a serial runner never creates a pool.

Fault tolerance
---------------
Parallel dispatch is **supervised** (:mod:`repro.sim.supervise`): a
worker crash rebuilds the pool and re-dispatches only the lost chunks
with bounded exponential backoff; a chunk that keeps dying is bisected
down to the poison spec, which is confirmed with a solo dispatch and
surfaced as a structured :class:`~repro.errors.WorkerCrashError` while
its chunk-mates' results are recovered; a hung chunk trips a watchdog
deadline derived from :func:`estimate_cost` and ends in
:class:`~repro.errors.SpecTimeoutError` instead of blocking forever;
and a pool that keeps dying marks the runner degraded, after which the
runner's one serial loop finishes that batch and runs every later one.
The bounds on all of this are one
:class:`~repro.sim.supervise.RetryPolicy`, the runner's
``retry_policy`` argument.
A corrupt pack record (CRC mismatch or failed decode) has its bytes
copied to ``<cache-dir>/quarantine/`` (with a one-line stderr warning)
and is served as a miss, so a bad disk or a chaos run leaves evidence
behind; the quarantine itself is bounded (256 MiB / 256 entries, oldest
evicted first) so the evidence locker cannot grow without limit.  An
interrupted run resumes from the cache alone: rerun against the same
``cache_dir`` and every completed spec is a hit.  None of this can
change results: every spec is a pure function of itself, so retried,
resumed and fault-free runs are byte-identical.
"""

from __future__ import annotations

import os
import pickle
import re
import sys
import tempfile
import zlib
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Sequence

from repro.errors import ExecutionError, RunInterruptedError, SpecFailedError
from repro.sim.supervise import PoolSupervisor, RetryPolicy

try:  # pragma: no cover - POSIX only; appends stay atomic-ish elsewhere
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - break the sim <-> scenarios cycle
    from repro.scenarios.spec import ScenarioOutcome, ScenarioSpec

#: Name of the append-only manifest inside a cache directory.
MANIFEST_NAME = "manifest.pack"

#: Subdirectory corrupt cache entries are moved to: evidence for
#: post-mortems, out of the lookup path.
QUARANTINE_DIR = "quarantine"

#: Quarantine growth bounds: total bytes and entry count.  Quarantine
#: is evidence, not an archive -- without a cap a long-lived shared
#: cache directory on flaky storage accretes corrupt blobs forever.
#: Oldest entries are evicted first once either bound is crossed.
QUARANTINE_MAX_BYTES = 256 * 2**20
QUARANTINE_MAX_ENTRIES = 256

#: Versioned cache keys look like ``s<schema>-<kernel>-<hash>`` (see
#: ``repro.scenarios.spec.cache_key_prefix``); the schema number orders
#: generations for stranded-record reclamation.
_GENERATION_RE = re.compile(r"^s(\d+)-")

#: Capacity of the in-process LRU tier (entries); 0 disables it (every
#: lookup then goes to disk).  Read at call time, like the other bounds.
MEMORY_MAX_ENTRIES = 1024

#: Size-aware companion bound: total interval observations held across
#: all LRU entries (a proxy for resident bytes -- outcomes range from a
#: ~30-interval calibration probe to a ~1400-interval paper-length day,
#: so an entry count alone is blind to an order of magnitude of memory).
#: 0 disables the size bound.
MEMORY_MAX_OBSERVATIONS = 500_000

#: Compaction trigger (see :meth:`DiskCache.close`): rewrite the pack
#: when at least this many dead bytes have accumulated...
COMPACT_MIN_DEAD_BYTES = 1 << 16

#: ...and the dead bytes are at least this fraction of the pack.
COMPACT_DEAD_FRACTION = 0.5

#: Cost-model calibration, fixed inputs to the dispatch plan: the
#: per-interval cost ``k * (1 + arrivals / ARRIVALS_COST_HALF)`` doubles
#: at about 2.7k real arrivals per interval, and a collocated SPEC
#: batch adds about 2%.  Both were fitted to paired engine
#: micro-benchmark runs (Memcached at ``sim_scale=25``, 1k and 10k
#: arrivals per interval, with and without collocation).  They are
#: literals so that a plan never depends on the machine or files around
#: the package; ``tests/test_batch_runner.py`` pins the plan they give.
ARRIVALS_COST_HALF = 2673.2
COLLOCATION_COST_FACTOR = 1.0182

#: Scheduling: target chunks per worker.  More chunks = better load
#: balance at the tail, fewer = less inter-process overhead; 4 is the
#: classic oversubscription compromise.
CHUNKS_PER_WORKER = 4


def _stamp(stat: os.stat_result) -> tuple[int, ...]:
    """What identifies one state of the pack file: a rewrite or an
    append changes its inode, size or times."""
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns)


def execute_scenario(spec: "ScenarioSpec") -> "ScenarioOutcome":
    """Run one scenario in the current process."""
    return spec.run()


def _warm_worker() -> None:
    """Pool initializer: pull the heavyweight imports (engine, factories,
    platform construction) into the worker once, not once per spec.

    Under the default ``fork`` start method children inherit the parent's
    modules and this is nearly free; under ``spawn``/``forkserver`` it
    moves the multi-hundred-ms import tax out of the first chunk."""
    import repro.scenarios.factories  # noqa: F401
    import repro.sim.engine  # noqa: F401


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------

_WORKLOAD_RPS_MEMO: dict[tuple, float] = {}


def _workload_max_rps(workload: str, params) -> float:
    """Max requests/s of a workload spec (memoized; params are frozen)."""
    memo_key = (workload, params)
    try:
        return _WORKLOAD_RPS_MEMO[memo_key]
    except KeyError:
        from repro.scenarios import factories

        rps = float(factories.build_workload(workload, params).max_load_rps)
        _WORKLOAD_RPS_MEMO[memo_key] = rps
        return rps


def estimate_cost(spec: "ScenarioSpec") -> float:
    """Relative execution cost of one spec, for scheduling only.

    Modelled as ``intervals x (1 + arrivals_per_interval / half)``,
    times the collocation factor for specs with a batch job, using the
    fixed :data:`ARRIVALS_COST_HALF` and :data:`COLLOCATION_COST_FACTOR`.
    Both inputs are read off the run the engine will execute: the
    interval count is the spec's ``n_intervals`` or else the built
    trace's whole intervals, and the arrivals follow the mean of the
    loads the trace offers at those intervals' midpoints
    (:meth:`~repro.loadgen.traces.LoadTrace.interval_loads`).  Only the
    *ordering* matters -- longest-job-first dispatch and chunk sizing.
    """
    try:
        interval_s = float(dict(spec.engine).get("interval_s", 1.0))
        trace = spec.trace.build()
        intervals = spec.n_intervals or trace.n_intervals(interval_s)
        mean_load = float(trace.interval_loads(max(intervals, 1), interval_s).mean())
        max_rps = _workload_max_rps(spec.workload, spec.workload_params)
    except Exception:
        # A spec that cannot be built fails in its own run, which
        # reports it per spec (as the serial path does); plan it cheap.
        return 1.0
    arrivals = mean_load * max_rps * interval_s
    cost = max(intervals, 1) * (1.0 + arrivals / ARRIVALS_COST_HALF)
    if spec.batch_jobs is not None:
        cost *= COLLOCATION_COST_FACTOR
    return cost


def plan_chunks(
    pending: Sequence[tuple[str, "ScenarioSpec"]], jobs: int
) -> list[list[tuple[str, "ScenarioSpec"]]]:
    """Longest-job-first dispatch plan with adaptive chunking.

    Specs are sorted by estimated cost (descending, input order breaking
    ties, so the plan is deterministic) and greedily packed into chunks
    of roughly ``total_cost / (jobs * CHUNKS_PER_WORKER)``: expensive
    specs travel alone -- one straggler must not serialize a tail of
    cheap specs behind it -- while cheap specs share a submission.
    """
    if not pending:
        return []
    costs = [estimate_cost(spec) for _, spec in pending]
    order = sorted(range(len(pending)), key=lambda i: (-costs[i], i))
    target = sum(costs) / max(1, jobs * CHUNKS_PER_WORKER)
    chunks: list[list[tuple[str, "ScenarioSpec"]]] = []
    current: list[tuple[str, "ScenarioSpec"]] = []
    current_cost = 0.0
    for i in order:
        (key, spec), cost = pending[i], costs[i]
        if current and current_cost + cost > target:
            chunks.append(current)
            current, current_cost = [], 0.0
        current.append((key, spec))
        current_cost += cost
    if current:
        chunks.append(current)
    return chunks


# ----------------------------------------------------------------------
# on-disk tier
# ----------------------------------------------------------------------


class DiskCache:
    """The on-disk outcome tier: one append-only pack of checksummed
    records (see the module docstring for the layout and its rules).

    Shared-directory safe: appends happen under an exclusive ``flock``,
    after which the writer verifies its handle still names
    ``manifest.pack`` (compaction swaps the inode via ``os.replace``),
    reopening if not, so no append can land in an orphaned pack.  The
    index remembers the inode it scanned and where the pack's
    well-formed prefix ends, so later syncs read only the records
    appended since -- by this process or any other.  :meth:`close`
    opportunistically compacts the pack: re-stored keys (racing
    appenders duplicating work) and retired cache-format generations
    strand dead records in it otherwise.  The thresholds are the module
    constants, read at call time.
    """

    def __init__(self, cache_dir: str | Path):
        from repro.scenarios.spec import cache_key_prefix

        self.cache_dir = Path(cache_dir)
        #: Keys of the current cache-format generation start with this.
        #: Compaction reclaims records of *retired* generations -- they
        #: are the latest record for their old key, so the latest-wins
        #: index alone would keep them alive forever.  Retired means a
        #: versioned key with a strictly lower schema number; keys of an
        #: equal-or-newer schema (a newer checkout sharing the directory,
        #: or a same-schema kernel variant) are left alone.
        self.live_prefix = cache_key_prefix()
        self._live_schema = int(_GENERATION_RE.match(self.live_prefix).group(1))
        self.compactions = 0
        self.corrupt_entries = 0
        self.quarantine_evictions = 0
        self._pack_index: dict[str, tuple[int, int, int]] | None = None
        self._pack_end = 0
        self._pack_inode: int | None = None
        #: The pack's ``_stamp`` when the index last described it record
        #: for record (a full scan, then only this handle's appends), or
        #: ``None`` when it may not: an incremental scan cannot tell a
        #: foreign compaction that reused the inode from new appends.
        self._pack_stamp: tuple[int, ...] | None = None
        self._pack_read_fh: BinaryIO | None = None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Compact the pack if it crossed the dead-bytes threshold and
        close the long-lived read handle (idempotent).

        The index survives: it is synced before every use, so closing
        again (a runner's ``__del__`` after its ``close()``) costs a
        lock and a ``stat``, not another scan of every header."""
        try:
            self._maybe_compact()
        except OSError:  # pragma: no cover - best-effort maintenance
            pass
        self._close_read_fh()

    def _close_read_fh(self) -> None:
        fh, self._pack_read_fh = self._pack_read_fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def _drop_read_state(self) -> None:
        self._close_read_fh()
        self._pack_index = None

    # -- paths ----------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        """The append-only manifest pack path."""
        return self.cache_dir / MANIFEST_NAME

    @property
    def quarantine_path(self) -> Path:
        """Where corrupt records are copied (``<cache-dir>/quarantine``)."""
        return self.cache_dir / QUARANTINE_DIR

    # -- quarantine -----------------------------------------------------

    def _quarantine_record(self, key: str, entry: tuple[int, int, int]) -> None:
        """Preserve a corrupt pack record's bytes for post-mortems.

        The record itself cannot be excised in place (the pack is
        append-only; a recompute supersedes it and compaction drops it
        later), so the payload bytes are copied aside and the in-memory
        index entry is evicted by the caller."""
        offset, size, _crc = entry
        target = self.quarantine_path / f"{key}.pack-record"
        try:
            with self.manifest_path.open("rb") as fh:
                fh.seek(offset)
                payload = fh.read(size)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(payload)
        except OSError:  # pragma: no cover - best-effort evidence
            pass
        self.corrupt_entries += 1
        print(
            f"[cache] quarantined corrupt manifest record {key} -> {target}",
            file=sys.stderr,
        )
        self._bound_quarantine()

    def _bound_quarantine(self) -> None:
        """Evict oldest quarantine entries past the size/count bounds.

        Best-effort (a racing eviction or an unreadable entry is
        skipped); evictions are counted for the ``[fault]`` stats line.
        """
        try:
            entries = [
                (path.stat().st_mtime, path.name, path.stat().st_size, path)
                for path in self.quarantine_path.iterdir()
                if path.is_file()
            ]
        except OSError:  # pragma: no cover - vanished quarantine dir
            return
        entries.sort()
        total = sum(size for _, _, size, _ in entries)
        while entries and (
            total > QUARANTINE_MAX_BYTES or len(entries) > QUARANTINE_MAX_ENTRIES
        ):
            _, _, size, path = entries.pop(0)
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing delete
                continue
            total -= size
            self.quarantine_evictions += 1

    # -- index ----------------------------------------------------------

    @staticmethod
    def _scan_pack(
        fh: BinaryIO, start: int = 0, index: dict | None = None
    ) -> tuple[dict[str, tuple[int, int, int]], int]:
        """Scan an open pack from ``start`` (a record boundary) into
        ``index`` (key -> payload offset, size, crc32; later records
        win), returning it with the offset where the well-formed prefix
        ends.  Anything that is not a whole ``key size crc32`` record --
        a torn tail, a malformed header, a pre-checksum record -- ends
        the prefix.
        """
        index = {} if index is None else index
        file_size = os.fstat(fh.fileno()).st_size
        end = start
        fh.seek(start)
        while True:
            header = fh.readline()
            try:
                key_bytes, size_bytes, crc_bytes = header.split()
                key = key_bytes.decode("ascii")
                size, crc = int(size_bytes), int(crc_bytes)
            except ValueError:
                break
            offset = end + len(header)
            if size < 0 or offset + size > file_size:
                break
            index[key] = (offset, size, crc)
            end = offset + size
            fh.seek(end)
        return index, end

    def _sync_index(
        self, fh: BinaryIO, *, exact: bool = False
    ) -> dict[str, tuple[int, int, int]]:
        """The index brought up to date with the open pack ``fh``.

        A pack unchanged since the index last described it exactly (same
        inode, size and times) is not read at all.  Otherwise only
        records past the known end of the well-formed prefix are
        scanned; a new inode (a foreign compaction) or a file shorter
        than that end means a full rescan.  So does an incremental scan
        that stops short of the end of the file: besides a torn tail,
        that is what a foreign compaction looks like when the new pack
        reuses the old inode number (ext4 hands freed inodes straight
        back), and ``store_many`` must never truncate at a stale end.

        An incremental scan that does reach the end can still have
        followed such a compaction by chance, which a lookup survives
        (every hit is checked against its header) but a copy by offset
        would not: ``exact`` asks for a full rescan unless the pack is
        unchanged since the index last described it exactly.
        """
        stat = os.fstat(fh.fileno())
        stamp = _stamp(stat)
        if self._pack_index is not None and stamp == self._pack_stamp:
            return self._pack_index
        stale = (
            exact
            or self._pack_index is None
            or stat.st_ino != self._pack_inode
            or stat.st_size < self._pack_end
        )
        if not stale and stat.st_size > self._pack_end:
            _, end = self._scan_pack(fh, self._pack_end, self._pack_index)
            stale = end < stat.st_size
            self._pack_end = end
        self._pack_stamp = None
        if stale:
            self._drop_read_state()
            self._pack_index, self._pack_end = self._scan_pack(fh)
            self._pack_stamp = stamp
        self._pack_inode = stat.st_ino
        return self._pack_index

    def _load_pack_index(self) -> dict[str, tuple[int, int, int]]:
        """The pack index, synced with the manifest on disk."""
        try:
            with self.manifest_path.open("rb") as fh:
                return self._sync_index(fh)
        except OSError:
            self._drop_read_state()
            return {}

    # -- loads ----------------------------------------------------------

    def load(self, key: str) -> "ScenarioOutcome | None":
        """The cached outcome for a key, or ``None``; stale-index safe.

        A key missing from the cached index syncs it first (another
        process may have appended the record since).  Compaction
        (possibly by *another* process) moves payload offsets, so a
        cached index may be stale.  A stale offset usually yields a
        failed unpickle, but with same-sized records it can land exactly
        on a different record's payload and decode cleanly -- so every
        hit is identity-checked against the record header in front of
        it, and any mismatch or decode failure drops the cached index
        and retries once against a fresh scan.
        """
        for attempt in range(2):
            entry = (self._pack_index or {}).get(key)
            if entry is None:
                entry = self._load_pack_index().get(key)
                if entry is None:
                    return None
            outcome = self._read_pack_entry(key, entry)
            if outcome is not None:
                return outcome
            if attempt == 0:
                # Corrupt record or stale offsets: rescan once.
                self._drop_read_state()
            else:
                # Still bad against a fresh scan: genuinely corrupt.
                # Quarantine the record bytes and evict just this key
                # (keeping the rebuilt index); the recompute's record
                # supersedes it.
                self._quarantine_record(key, entry)
                self._pack_index.pop(key, None)
        return None

    def _read_pack_entry(
        self, key: str, entry: tuple[int, int, int]
    ) -> "ScenarioOutcome | None":
        """Decode one record, or ``None`` if it is not ``key``'s.

        The record is read together with the header line that precedes
        it, and refused unless that header is exactly the one the index
        entry stands for: the header is what indexed the payload, so a
        stale offset that lands on another record (even one of the same
        size whose payload decodes cleanly) names the wrong key there.
        The CRC then guards the payload bytes themselves.
        """
        from repro.scenarios.spec import ScenarioOutcome

        offset, size, crc = entry
        header = f"{key} {size} {crc}\n".encode("ascii")
        start = offset - len(header)
        if start < 0:
            return None  # stale offset: no room for the header
        try:
            # One long-lived read handle: a warm start costs one open
            # plus seeks, not an open per key.
            if self._pack_read_fh is None:
                self._pack_read_fh = self.manifest_path.open("rb")
            self._pack_read_fh.seek(start)
            record = self._pack_read_fh.read(len(header) + size)
            if not record.startswith(header):
                return None  # stale offset: another record is there
            payload = memoryview(record)[len(header) :]
            if zlib.crc32(payload) != crc:
                return None  # bit rot: detected even if it unpickles
            outcome = pickle.loads(payload)
        except Exception:  # corrupt record or unreadable pack
            self._close_read_fh()
            return None
        if not isinstance(outcome, ScenarioOutcome):
            return None
        return outcome

    # -- stores ---------------------------------------------------------

    def _open_pack_locked(self, mode: str) -> BinaryIO:
        """Open the manifest and take the exclusive lock, re-opening if
        a concurrent compaction swapped the inode in between."""
        while True:
            fh = self.manifest_path.open(mode)
            if fcntl is None:  # pragma: no cover - non-POSIX fallback
                return fh
            try:
                fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            except OSError:  # pragma: no cover - e.g. ENOLCK on NFS
                fh.close()
                raise
            try:
                current = (
                    os.fstat(fh.fileno()).st_ino
                    == os.stat(self.manifest_path).st_ino
                )
            except OSError:  # pragma: no cover - racing dir mutation
                current = True  # nothing better to re-open; use the handle
            if current:
                return fh
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
            fh.close()

    @staticmethod
    def _unlock(fh: BinaryIO) -> None:
        if fcntl is not None:
            fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def store_many(self, payloads: Sequence[tuple[str, bytes]]) -> None:
        """Append pickled outcomes to the pack under one exclusive lock.

        The index is synced first, then the file is truncated at the end
        of its well-formed prefix, so the new records start on a record
        boundary.  Errors propagate (after dropping the index, which may
        no longer match the file).
        """
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        fh = self._open_pack_locked("a+b")
        try:
            index = self._sync_index(fh)
            exact = self._pack_stamp is not None
            end = self._pack_end
            fh.truncate(end)
            for key, payload in payloads:
                crc = zlib.crc32(payload)
                header = f"{key} {len(payload)} {crc}\n".encode("ascii")
                fh.write(header)
                fh.write(payload)
                index[key] = (end + len(header), len(payload), crc)
                end += len(header) + len(payload)
            fh.flush()
            self._pack_end = end
            # Under the lock, so the appends are the only change.
            self._pack_stamp = _stamp(os.fstat(fh.fileno())) if exact else None
        except BaseException:
            self._drop_read_state()
            raise
        finally:
            self._unlock(fh)
            fh.close()

    # -- compaction -----------------------------------------------------

    def dead_pack_bytes(self) -> tuple[int, int]:
        """``(dead_bytes, file_size)`` of the pack right now."""
        try:
            with self.manifest_path.open("rb") as fh:
                index, _ = self._scan_pack(fh)
                file_size = os.fstat(fh.fileno()).st_size
        except OSError:
            return 0, 0
        return file_size - self._live_bytes(index), file_size

    def _key_is_reclaimable(self, key: str) -> bool:
        """Whether a key belongs to a provably *retired* generation: a
        versioned key with a strictly lower schema number than ours."""
        match = _GENERATION_RE.match(key)
        return match is not None and int(match.group(1)) < self._live_schema

    def _live_bytes(self, index: dict[str, tuple[int, int, int]]) -> int:
        return sum(
            len(f"{key} {size} {crc}\n") + size
            for key, (_, size, crc) in index.items()
            if not self._key_is_reclaimable(key)
        )

    def _maybe_compact(self) -> None:
        """Rewrite the pack without its dead records, if worthwhile.

        Dead bytes are superseded records (same key appended again, by
        this or a racing runner), records of a retired generation (still
        the latest for their old key, but unreachable by any current
        lookup), and whatever follows the well-formed prefix.  The
        rewrite happens to a temp file that atomically replaces the pack
        while the exclusive lock is held; the index is synced *under the
        lock* so records appended by a racing runner since our last read
        are preserved.  The rewrite copies records by their indexed
        offsets, so the sync is exact (:meth:`_sync_index`): a pack that
        anyone but this handle changed since its last full scan is
        rescanned, and one that nobody changed -- a read-only warm
        session's -- is not read again.  A record this session
        quarantined is out of the index, so it counts as dead.
        """
        if not self.manifest_path.exists():
            return
        fh = self._open_pack_locked("rb")
        try:
            index = self._sync_index(fh, exact=True)
            file_size = os.fstat(fh.fileno()).st_size
            dead = file_size - self._live_bytes(index)
            if dead < COMPACT_MIN_DEAD_BYTES or dead < (
                COMPACT_DEAD_FRACTION * file_size
            ):
                return
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as out:
                    # Live records in offset order: stable and seek-free.
                    for key, (offset, size, crc) in sorted(
                        index.items(), key=lambda item: item[1][0]
                    ):
                        if self._key_is_reclaimable(key):
                            continue  # retired generation: reclaim
                        fh.seek(offset)
                        out.write(f"{key} {size} {crc}\n".encode("ascii"))
                        out.write(fh.read(size))
                    out.flush()
                    os.fsync(out.fileno())
                os.replace(tmp, self.manifest_path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self.compactions += 1
            # Offsets moved: the next lookup rescans the new pack.
            self._drop_read_state()
        finally:
            self._unlock(fh)
            fh.close()


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------


@dataclass
class BatchRunner:
    """Fan scenario specs out over a persistent pool, caching results.

    Parameters
    ----------
    jobs:
        Worker processes; 1 runs everything in-process (serial).  The
        pool is created lazily on the first parallel batch and reused by
        every later batch until :meth:`close`.
    cache_dir:
        Directory for the on-disk tier (a :class:`DiskCache`: one
        append-only pack of checksummed records); ``None`` keeps
        results only in the in-process LRU (bounded by
        :data:`MEMORY_MAX_ENTRIES` and :data:`MEMORY_MAX_OBSERVATIONS`).
        Corrupt, unreadable or legacy-format records are treated as
        misses, and a corrupt record's bytes are copied to
        ``<cache_dir>/quarantine/`` on detection.
    retry_policy:
        Bounds on the fault-tolerance layer (crash retries, watchdog
        deadlines, serial degradation); ``None`` means the defaults,
        ``RetryPolicy()``.  This is the one place the policy is set.
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    retry_policy: RetryPolicy | None = None
    cache_hits: int = field(default=0, init=False)
    cache_misses: int = field(default=0, init=False)
    memory_hits: int = field(default=0, init=False)
    disk_hits: int = field(default=0, init=False)
    specs_dispatched: int = field(default=0, init=False)
    chunks_dispatched: int = field(default=0, init=False)
    pool_spawns: int = field(default=0, init=False)
    # -- fault-tolerance counters (the [fault] stderr line) ------------
    worker_crashes: int = field(default=0, init=False)
    spec_timeouts: int = field(default=0, init=False)
    chunk_retries: int = field(default=0, init=False)
    chunk_bisections: int = field(default=0, init=False)
    pool_rebuilds: int = field(default=0, init=False)
    specs_failed: int = field(default=0, init=False)
    degraded: bool = field(default=False, init=False)
    stop_requested: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retry_policy is None:
            self.retry_policy = RetryPolicy()
        self._disk: DiskCache | None = None
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)
            self._disk = DiskCache(self.cache_dir)
        self._pool: ProcessPoolExecutor | None = None
        self._memory: OrderedDict[str, "ScenarioOutcome"] = OrderedDict()
        self._memory_weights: dict[str, int] = {}
        self._memory_weight = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def pool_workers(self) -> int:
        """Workers in the live pool (0 while no pool exists)."""
        return 0 if self._pool is None else self.jobs

    @property
    def disk(self) -> DiskCache | None:
        """The on-disk tier (``None`` without a ``cache_dir``)."""
        return self._disk

    def close(self) -> None:
        """Shut the worker pool down and close the disk tier, giving it
        its compaction opportunity (idempotent; the caches survive)."""
        self._retire_pool()
        if self._disk is not None:
            self._disk.close()

    def request_stop(self) -> None:
        """Ask the current/next run to stop after draining in flight.

        Signal-handler safe (sets a flag); the supervisor notices within
        one poll interval, lets in-flight chunks finish, flushes their
        outcomes to the cache, then raises
        :class:`~repro.errors.RunInterruptedError`.
        """
        self.stop_requested = True

    def _retire_pool(self, *, kill: bool = False) -> None:
        """Tear the pool down; ``kill`` SIGKILLs workers first (the only
        way out when one is hung -- ``shutdown`` would join it forever).
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.kill()
                except (OSError, AttributeError):  # already gone
                    pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # broken pools can raise on shutdown too
            pass

    def __enter__(self) -> "BatchRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_warm_worker
            )
            self.pool_spawns += 1
        return self._pool

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, specs: Iterable["ScenarioSpec"]) -> list["ScenarioOutcome"]:
        """Execute every spec, in input order; duplicates run once."""
        spec_list = list(specs)
        results: list["ScenarioOutcome | None"] = [None] * len(spec_list)
        for index, outcome in self.iter_run(spec_list):
            results[index] = outcome
        return results  # type: ignore[return-value]  # every index yielded

    def iter_run(
        self,
        specs: Iterable["ScenarioSpec"],
        *,
        on_failure: str = "raise",
    ) -> Iterator[tuple[int, "ScenarioOutcome"]]:
        """Yield ``(input_index, outcome)`` pairs in completion order.

        Every input index is yielded exactly once: cache hits
        immediately, computed specs as their chunk completes, duplicate
        indices right after their key resolves.  Unlike :meth:`run` this
        never materializes the whole outcome list, so a streaming
        consumer (the fleet aggregation fold) can reduce each outcome
        and drop it -- only the in-process LRU (bounded by
        :data:`MEMORY_MAX_OBSERVATIONS`) retains references.

        A spec that definitively fails (poison spec, repeated watchdog
        timeout, Python exception in the engine) does not abort its
        batch-mates.  With ``on_failure="raise"`` (the default) the
        first failure's :class:`~repro.errors.ExecutionError` is raised
        *after* every other spec has been yielded; with
        ``on_failure="yield"`` the error object itself is yielded in
        the outcome slot, so pack runners can report per-entry status.
        """
        from repro.scenarios.spec import ScenarioSpec

        if on_failure not in ("raise", "yield"):
            raise ValueError('on_failure must be "raise" or "yield"')
        spec_list = list(specs)
        for spec in spec_list:
            if not isinstance(spec, ScenarioSpec):
                raise TypeError(f"expected ScenarioSpec, got {type(spec).__name__}")
        keys = [spec.fingerprint() for spec in spec_list]

        positions: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            positions.setdefault(key, []).append(index)

        pending: list[tuple[str, "ScenarioSpec"]] = []
        seen: set[str] = set()
        for key, spec in zip(keys, spec_list):
            if key in seen:
                continue  # duplicate: probe the cache once per key
            seen.add(key)
            cached = self._cache_load(key)
            if cached is not None:
                self.cache_hits += 1
                for index in positions[key]:
                    yield index, cached
            else:
                pending.append((key, spec))
                self.cache_misses += 1

        deferred: ExecutionError | None = None
        for key, result in self._execute(pending):
            if isinstance(result, ExecutionError):
                if on_failure == "yield":
                    for index in positions[key]:
                        yield index, result  # type: ignore[misc]
                elif deferred is None:
                    deferred = result
                continue
            for index in positions[key]:
                yield index, result
        if deferred is not None:
            raise deferred

    def _execute(
        self, pending: Sequence[tuple[str, "ScenarioSpec"]]
    ) -> Iterable[tuple[str, "ScenarioOutcome | ExecutionError"]]:
        """Compute pending specs (completion order) and cache each one.

        Yields the spec's :class:`~repro.errors.ExecutionError` in place
        of its outcome when it definitively failed (never cached).
        Pool batches run under a :class:`~repro.sim.supervise.
        PoolSupervisor`; everything else runs in the serial loop below:
        a serial runner's batches, a degraded runner's batches, and what
        the supervisor leaves when the pool degrades mid-batch.
        """
        if not pending:
            return
        self.specs_dispatched += len(pending)
        # A single spec is cheaper in-process unless warm workers are
        # already standing by.
        if (
            self.jobs > 1
            and not self.degraded
            and (self._pool is not None or len(pending) > 1)
        ):
            chunks = plan_chunks(pending, self.jobs)
            self.chunks_dispatched += len(chunks)
            supervisor = PoolSupervisor(self, chunks, self.retry_policy)
            for key, result in supervisor.events():
                if not isinstance(result, ExecutionError):
                    self._cache_store_many([(key, result)])
                yield key, result
            if not self.degraded:
                return
            pending = supervisor.remaining()
        mode = " (degraded serial mode)" if self.degraded else ""
        for position, (key, spec) in enumerate(pending):
            if self.stop_requested:
                raise RunInterruptedError.pending(
                    len(pending) - position, self.cache_dir
                )
            try:
                outcome = execute_scenario(spec)
            except Exception as exc:
                self.specs_failed += 1
                yield key, SpecFailedError.raised(
                    key, spec, type(exc).__name__, str(exc), mode
                )
                continue
            self._cache_store_many([(key, outcome)])
            yield key, outcome

    # ------------------------------------------------------------------
    # cache
    # ------------------------------------------------------------------

    def _memory_get(self, key: str) -> "ScenarioOutcome | None":
        if MEMORY_MAX_ENTRIES == 0:
            return None
        outcome = self._memory.get(key)
        if outcome is not None:
            self._memory.move_to_end(key)
        return outcome

    def _memory_put(self, key: str, outcome: "ScenarioOutcome") -> None:
        if MEMORY_MAX_ENTRIES == 0:
            return
        weight = max(1, len(outcome.result))
        if key in self._memory:
            self._memory_weight -= self._memory_weights[key]
        self._memory[key] = outcome
        self._memory_weights[key] = weight
        self._memory_weight += weight
        self._memory.move_to_end(key)
        while len(self._memory) > 1 and (
            len(self._memory) > MEMORY_MAX_ENTRIES
            or (
                MEMORY_MAX_OBSERVATIONS
                and self._memory_weight > MEMORY_MAX_OBSERVATIONS
            )
        ):
            evicted, _ = self._memory.popitem(last=False)
            self._memory_weight -= self._memory_weights.pop(evicted)

    def _cache_load(self, key: str) -> "ScenarioOutcome | None":
        outcome = self._memory_get(key)
        if outcome is not None:
            self.memory_hits += 1
            return outcome
        if self._disk is None:
            return None
        outcome = self._disk.load(key)
        if outcome is not None:
            self.disk_hits += 1
            self._memory_put(key, outcome)
        return outcome

    def _cache_store_many(
        self, items: Sequence[tuple[str, "ScenarioOutcome"]]
    ) -> None:
        for key, outcome in items:
            self._memory_put(key, outcome)
        if self._disk is None or not items:
            return
        self._disk.store_many(
            [
                (key, pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
                for key, outcome in items
            ]
        )

