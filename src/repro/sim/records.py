"""Observation records produced by the interval co-simulator.

One :class:`IntervalObservation` is what the paper's QoS Monitor sees at
the end of each monitoring interval: application-level load and tail
latency, system power from the energy registers, and batch IPS from the
performance counters.  :class:`ExperimentResult` collects a run's
observations and exposes the summary metrics the paper reports.

Columnar storage
----------------
Since the storage-format overhaul the run's backing store is an
:class:`ObservationTable` -- a numpy struct-of-arrays with one typed
column per observation field, plus dictionary-encoded pools for the two
non-scalar fields (each interval's :class:`~repro.policies.base.Decision`
and configuration label repeat heavily, so the table stores small
integer codes into a pool of unique values).  Real large-cluster
telemetry pipelines store per-node samples columnar for the same
reasons this repo does:

* every summary metric the paper reports is a column reduction, served
  by zero-copy views instead of per-call ``np.array([getattr(o, a) for
  o in obs])`` rebuilds;
* a cached outcome pickles as four typed blocks (one 2-D array per
  column dtype) instead of thousands of per-interval dataclass
  objects, which is what made warm-start cache reads unpickle-bound;
* fleet aggregation can fold a node's columns into fixed-size
  accumulators and drop the node's table immediately.

:class:`IntervalObservation` survives unchanged as the *row* view:
``result.observations`` lazily materializes dataclass rows for existing
call sites (managers, figure modules, the test-suite oracles),
and the engine hands managers a lightweight :class:`ObservationRowView`
backed directly by the column buffers.

``STORAGE_VERSION`` stamps every pickled table/result; loading a
payload from a different format version (e.g. a pre-columnar cache
entry) raises instead of resurrecting a half-compatible object, which
the outcome cache treats as a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro.sim.latency import qos_guarantee, qos_tardiness

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.policies.base import Decision

#: Version of the pickled observation-store layout: 1 was a tuple of
#: per-interval dataclasses, 2 one array per column, 3 one 2-D block
#: per column dtype.  Payloads from any other version are rejected on
#: load.
STORAGE_VERSION = 3

#: Observation fields stored as float64 columns.
FLOAT_FIELDS = (
    "t_start_s",
    "duration_s",
    "offered_load",
    "measured_load",
    "arrival_rps",
    "tail_latency_ms",
    "mean_latency_ms",
    "tardiness",
    "power_w",
    "energy_j",
    "big_ips",
    "small_ips",
    "big_freq_ghz",
    "small_freq_ghz",
    "mean_utilization",
    "backlog_s",
    "shed_work_s",
    "batch_instructions",
)

#: Observation fields stored as int64 columns.
INT_FIELDS = ("index", "n_requests", "migrated_cores")

#: Observation fields stored as bool columns.
BOOL_FIELDS = ("qos_met", "counter_garbage", "migration_event")

#: All scalar columns, in storage order.
SCALAR_FIELDS = FLOAT_FIELDS + INT_FIELDS + BOOL_FIELDS

#: Dictionary-encoded fields: an int32 code column plus a pool of
#: unique values (decisions and config labels repeat across intervals).
POOLED_FIELDS = ("decision", "config_label")

#: Storage blocks: each is one C-contiguous ``(len(fields), capacity)``
#: array whose rows are the columns of its fields.  A table pickles as
#: these four buffers, so a cache read decodes four arrays, not one per
#: field.
BLOCKS = (
    (np.float64, FLOAT_FIELDS),
    (np.int64, INT_FIELDS),
    (np.bool_, BOOL_FIELDS),
    (np.int32, POOLED_FIELDS),
)


@dataclass(frozen=True)
class IntervalObservation:
    """Everything measurable about one monitoring interval.

    The fields mirror the paper's QoS Monitor (Section 3.2): application
    metrics come from the workload's logfile interface, power from the
    energy meters, and ``big_ips``/``small_ips`` from perf counters over
    the batch cores (and may therefore be garbage if the Juno perf bug
    fires -- see :mod:`repro.hardware.counters`).

    Since the columnar overhaul this is the *row view* of an
    :class:`ObservationTable`: materialized lazily from the column
    buffers, never the storage format itself.
    """

    index: int
    t_start_s: float
    duration_s: float
    offered_load: float
    measured_load: float
    arrival_rps: float
    n_requests: int
    tail_latency_ms: float
    mean_latency_ms: float
    qos_met: bool
    tardiness: float
    power_w: float
    energy_j: float
    big_ips: float
    small_ips: float
    counter_garbage: bool
    decision: "Decision"
    config_label: str
    big_freq_ghz: float
    small_freq_ghz: float
    migrated_cores: int
    migration_event: bool
    mean_utilization: float
    backlog_s: float
    shed_work_s: float
    batch_instructions: float


class ObservationTable:
    """Struct-of-arrays store for a run's interval observations.

    One preallocated, typed numpy column per scalar observation field;
    ``decision`` and ``config_label`` are dictionary-encoded (an int32
    code column over a pool of unique values).  Each column is a row
    view into the 2-D block of its dtype (see :data:`BLOCKS`).  The
    engine appends one row per monitoring interval; :meth:`freeze` then
    makes every column read-only so the zero-copy views handed out by
    :class:`ExperimentResult` cannot be mutated behind the cache's back.
    Frozen tables never append, so they carry no pool index dicts.
    """

    __slots__ = (
        "_blocks",
        "_cols",
        "_decision_pool",
        "_decision_index",
        "_label_pool",
        "_label_index",
        "_n",
        "_capacity",
        "_frozen",
    )

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._bind(
            tuple(np.empty((len(names), capacity), dtype) for dtype, names in BLOCKS)
        )
        self._decision_pool: list["Decision"] = []
        self._decision_index: dict["Decision", int] | None = {}
        self._label_pool: list[str] = []
        self._label_index: dict[str, int] | None = {}
        self._n = 0
        self._capacity = capacity
        self._frozen = False

    def _bind(self, blocks: tuple[np.ndarray, ...]) -> None:
        """Adopt ``blocks`` and point every column at its block row."""
        self._blocks = blocks
        self._cols: dict[str, np.ndarray] = {
            field: row
            for (_, names), block in zip(BLOCKS, blocks)
            for field, row in zip(names, block)
        }

    def _set_frozen(
        self,
        blocks: tuple[np.ndarray, ...],
        decision_pool: Sequence["Decision"],
        label_pool: Sequence[str],
    ) -> None:
        """Adopt finished blocks and pools as a read-only table."""
        for block in blocks:
            block.flags.writeable = False
        # Bound after the flags change, so the column views are
        # read-only too.
        self._bind(blocks)
        self._decision_pool = list(decision_pool)
        self._label_pool = list(label_pool)
        self._decision_index = self._label_index = None
        self._n = self._capacity = blocks[0].shape[1]
        self._frozen = True

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def append(
        self,
        *,
        index: int,
        t_start_s: float,
        duration_s: float,
        offered_load: float,
        measured_load: float,
        arrival_rps: float,
        n_requests: int,
        tail_latency_ms: float,
        mean_latency_ms: float,
        qos_met: bool,
        tardiness: float,
        power_w: float,
        energy_j: float,
        big_ips: float,
        small_ips: float,
        counter_garbage: bool,
        decision: "Decision",
        config_label: str,
        big_freq_ghz: float,
        small_freq_ghz: float,
        migrated_cores: int,
        migration_event: bool,
        mean_utilization: float,
        backlog_s: float,
        shed_work_s: float,
        batch_instructions: float,
    ) -> int:
        """Append one interval's scalars; returns the new row's index."""
        if self._frozen:
            raise RuntimeError("cannot append to a frozen ObservationTable")
        i = self._n
        if i >= self._capacity:
            raise IndexError("ObservationTable capacity exhausted")
        cols = self._cols
        cols["index"][i] = index
        cols["t_start_s"][i] = t_start_s
        cols["duration_s"][i] = duration_s
        cols["offered_load"][i] = offered_load
        cols["measured_load"][i] = measured_load
        cols["arrival_rps"][i] = arrival_rps
        cols["n_requests"][i] = n_requests
        cols["tail_latency_ms"][i] = tail_latency_ms
        cols["mean_latency_ms"][i] = mean_latency_ms
        cols["qos_met"][i] = qos_met
        cols["tardiness"][i] = tardiness
        cols["power_w"][i] = power_w
        cols["energy_j"][i] = energy_j
        cols["big_ips"][i] = big_ips
        cols["small_ips"][i] = small_ips
        cols["counter_garbage"][i] = counter_garbage
        code = self._decision_index.get(decision)
        if code is None:
            code = len(self._decision_pool)
            self._decision_pool.append(decision)
            self._decision_index[decision] = code
        cols["decision"][i] = code
        code = self._label_index.get(config_label)
        if code is None:
            code = len(self._label_pool)
            self._label_pool.append(config_label)
            self._label_index[config_label] = code
        cols["config_label"][i] = code
        cols["big_freq_ghz"][i] = big_freq_ghz
        cols["small_freq_ghz"][i] = small_freq_ghz
        cols["migrated_cores"][i] = migrated_cores
        cols["migration_event"][i] = migration_event
        cols["mean_utilization"][i] = mean_utilization
        cols["backlog_s"][i] = backlog_s
        cols["shed_work_s"][i] = shed_work_s
        cols["batch_instructions"][i] = batch_instructions
        self._n = i + 1
        return i

    def extend(
        self,
        n: int,
        *,
        decision: "Decision",
        config_label: str,
        **columns,
    ) -> int:
        """Bulk-append ``n`` rows sharing one decision; returns the first index.

        The epoch fast path's counterpart to :meth:`append`: ``columns``
        must provide every scalar field, each as either a length-``n``
        array-like or a scalar to broadcast (epoch-constant fields such
        as ``duration_s`` or ``big_ips``).  ``decision`` and
        ``config_label`` are scalars by construction -- an epoch exists
        only while the decision is unchanged -- so each pool is consulted
        once for the whole slab.
        """
        if self._frozen:
            raise RuntimeError("cannot append to a frozen ObservationTable")
        if n < 0:
            raise ValueError("row count must be non-negative")
        i = self._n
        if i + n > self._capacity:
            raise IndexError("ObservationTable capacity exhausted")
        missing = set(SCALAR_FIELDS) - set(columns)
        extra = set(columns) - set(SCALAR_FIELDS)
        if missing or extra:
            raise TypeError(
                f"extend() expects exactly the scalar fields; missing "
                f"{sorted(missing)}, unexpected {sorted(extra)}"
            )
        cols = self._cols
        for field, value in columns.items():
            cols[field][i : i + n] = value
        code = self._decision_index.get(decision)
        if code is None:
            code = len(self._decision_pool)
            self._decision_pool.append(decision)
            self._decision_index[decision] = code
        cols["decision"][i : i + n] = code
        code = self._label_index.get(config_label)
        if code is None:
            code = len(self._label_pool)
            self._label_pool.append(config_label)
            self._label_index[config_label] = code
        cols["config_label"][i : i + n] = code
        self._n = i + n
        return i

    def freeze(self) -> "ObservationTable":
        """Trim to the appended length and make every column read-only."""
        if not self._frozen:
            blocks = self._blocks
            if self._n != self._capacity:
                blocks = self._trimmed_blocks()
            self._set_frozen(blocks, self._decision_pool, self._label_pool)
        return self

    def _trimmed_blocks(self) -> tuple[np.ndarray, ...]:
        """C-contiguous copies of the appended part of every block."""
        return tuple(block[:, : self._n].copy() for block in self._blocks)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def column(self, field: str) -> np.ndarray:
        """The column for one scalar field (read-only once frozen).

        For the pooled fields this is the int32 *code* column; use
        :meth:`decision_at` / :meth:`label_at` (or :meth:`row`) for the
        decoded values.
        """
        return self._cols[field]

    @property
    def decision_pool(self) -> tuple["Decision", ...]:
        """Unique decisions, in first-appearance order."""
        return tuple(self._decision_pool)

    @property
    def label_pool(self) -> tuple[str, ...]:
        """Unique configuration labels, in first-appearance order."""
        return tuple(self._label_pool)

    def decision_at(self, i: int) -> "Decision":
        """The decoded decision of row ``i``."""
        return self._decision_pool[self._cols["decision"][i]]

    def label_at(self, i: int) -> str:
        """The decoded configuration label of row ``i``."""
        return self._label_pool[self._cols["config_label"][i]]

    def decision_values(self, fn: Callable[["Decision"], object]) -> np.ndarray:
        """``fn(decision)`` per row, evaluated once per pooled decision."""
        pooled = np.array([fn(decision) for decision in self._decision_pool])
        return pooled[self._cols["decision"]]

    def labels(self) -> tuple[str, ...]:
        """Decoded configuration labels, one per row."""
        pool = self._label_pool
        return tuple(pool[code] for code in self._cols["config_label"].tolist())

    def row(self, i: int) -> IntervalObservation:
        """Materialize row ``i`` as a plain-scalar dataclass."""
        cols = self._cols
        return IntervalObservation(
            index=cols["index"][i].item(),
            t_start_s=cols["t_start_s"][i].item(),
            duration_s=cols["duration_s"][i].item(),
            offered_load=cols["offered_load"][i].item(),
            measured_load=cols["measured_load"][i].item(),
            arrival_rps=cols["arrival_rps"][i].item(),
            n_requests=cols["n_requests"][i].item(),
            tail_latency_ms=cols["tail_latency_ms"][i].item(),
            mean_latency_ms=cols["mean_latency_ms"][i].item(),
            qos_met=cols["qos_met"][i].item(),
            tardiness=cols["tardiness"][i].item(),
            power_w=cols["power_w"][i].item(),
            energy_j=cols["energy_j"][i].item(),
            big_ips=cols["big_ips"][i].item(),
            small_ips=cols["small_ips"][i].item(),
            counter_garbage=cols["counter_garbage"][i].item(),
            decision=self._decision_pool[cols["decision"][i]],
            config_label=self._label_pool[cols["config_label"][i]],
            big_freq_ghz=cols["big_freq_ghz"][i].item(),
            small_freq_ghz=cols["small_freq_ghz"][i].item(),
            migrated_cores=cols["migrated_cores"][i].item(),
            migration_event=cols["migration_event"][i].item(),
            mean_utilization=cols["mean_utilization"][i].item(),
            backlog_s=cols["backlog_s"][i].item(),
            shed_work_s=cols["shed_work_s"][i].item(),
            batch_instructions=cols["batch_instructions"][i].item(),
        )

    def rows(self) -> tuple[IntervalObservation, ...]:
        """Materialize every row, in order."""
        return tuple(self.row(i) for i in range(self._n))

    def view(self, i: int) -> "ObservationRowView":
        """A lazy row view over row ``i`` (no dataclass construction)."""
        return ObservationRowView(self, i)

    def take(self, indices: np.ndarray) -> "ObservationTable":
        """A new frozen table holding the given rows (in given order).

        The pools are shared structurally (codes stay valid), so a
        time-slice costs one fancy-index per block.
        """
        taken = ObservationTable.__new__(ObservationTable)
        taken._set_frozen(
            tuple(np.take(block, indices, axis=1) for block in self._blocks),
            self._decision_pool,
            self._label_pool,
        )
        return taken

    # ------------------------------------------------------------------
    # pickling (the cache payload)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        # Snapshot a mid-build table without mutating it (pickling or
        # deepcopying a live table must not freeze the source).
        blocks = self._blocks if self._frozen else self._trimmed_blocks()
        return {
            "storage": STORAGE_VERSION,
            "blocks": blocks,
            "decision_pool": tuple(self._decision_pool),
            "label_pool": tuple(self._label_pool),
        }

    def __setstate__(self, state) -> None:
        if not isinstance(state, dict) or state.get("storage") != STORAGE_VERSION:
            raise ValueError(
                "unsupported ObservationTable payload (storage format "
                f"{state.get('storage') if isinstance(state, dict) else '?'}; "
                f"this build reads version {STORAGE_VERSION})"
            )
        self._set_frozen(
            tuple(state["blocks"]), state["decision_pool"], state["label_pool"]
        )


class ObservationRowView:
    """One table row, read lazily straight from the column buffers.

    What the engine hands to ``manager.observe()``: attribute access
    decodes the requested field on demand (managers touch a handful of
    fields per interval), always as plain Python scalars, so manager
    arithmetic is bit-identical to the dataclass era.
    """

    __slots__ = ("_table", "_i")

    def __init__(self, table: ObservationTable, i: int):
        self._table = table
        self._i = i

    def materialize(self) -> IntervalObservation:
        """The full dataclass row (rarely needed; attribute access is
        the intended interface)."""
        return self._table.row(self._i)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ObservationRowView({self.materialize()!r})"


def _add_view_accessors() -> None:
    def scalar_property(field: str):
        def get(self):
            return self._table._cols[field][self._i].item()

        return property(get)

    for field in SCALAR_FIELDS:
        setattr(ObservationRowView, field, scalar_property(field))
    ObservationRowView.decision = property(
        lambda self: self._table.decision_at(self._i)
    )
    ObservationRowView.config_label = property(
        lambda self: self._table.label_at(self._i)
    )


_add_view_accessors()


class ExperimentResult:
    """A run's observations plus the paper's summary metrics.

    Backed by an :class:`ObservationTable` (frozen on construction).
    Column accessors are zero-copy read-only views into the table;
    ``observations`` materializes (and memoizes) dataclass rows for call
    sites that want the row-oriented interface.
    """

    def __init__(
        self,
        table: ObservationTable,
        *,
        workload_name: str,
        manager_name: str,
        target_latency_ms: float,
        interval_s: float,
    ):
        table = table.freeze()
        if not len(table):
            raise ValueError("an experiment result needs at least one interval")
        self._table = table
        self._rows: tuple[IntervalObservation, ...] | None = None
        self.workload_name = workload_name
        self.manager_name = manager_name
        self.target_latency_ms = target_latency_ms
        self.interval_s = interval_s

    # ------------------------------------------------------------------
    # pickling (versioned cache payload)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        return {
            "storage": STORAGE_VERSION,
            "table": self._table,
            "workload_name": self.workload_name,
            "manager_name": self.manager_name,
            "target_latency_ms": self.target_latency_ms,
            "interval_s": self.interval_s,
        }

    def __setstate__(self, state) -> None:
        if not isinstance(state, dict) or state.get("storage") != STORAGE_VERSION:
            raise ValueError(
                "unsupported ExperimentResult payload (legacy or unknown "
                f"storage format; this build reads version {STORAGE_VERSION})"
            )
        self._table = state["table"]
        self._rows = None
        self.workload_name = state["workload_name"]
        self.manager_name = state["manager_name"]
        self.target_latency_ms = state["target_latency_ms"]
        self.interval_s = state["interval_s"]

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[IntervalObservation]:
        return iter(self.observations)

    def __getitem__(self, index: int) -> IntervalObservation:
        return self.observations[index]

    @property
    def table(self) -> ObservationTable:
        """The columnar backing store."""
        return self._table

    @property
    def observations(self) -> tuple[IntervalObservation, ...]:
        """All interval observations, in order (materialized lazily)."""
        if self._rows is None:
            self._rows = self._table.rows()
        return self._rows

    # ------------------------------------------------------------------
    # column accessors (zero-copy, read-only)
    # ------------------------------------------------------------------

    def _column(self, attr: str) -> np.ndarray:
        return self._table.column(attr)

    @property
    def times_s(self) -> np.ndarray:
        """Interval start times, seconds."""
        return self._column("t_start_s")

    @property
    def loads(self) -> np.ndarray:
        """Offered load fractions."""
        return self._column("offered_load")

    @property
    def tails_ms(self) -> np.ndarray:
        """Measured tail latency per interval, ms."""
        return self._column("tail_latency_ms")

    @property
    def powers_w(self) -> np.ndarray:
        """System power per interval, watts."""
        return self._column("power_w")

    @property
    def arrival_rps(self) -> np.ndarray:
        """Achieved request throughput per interval."""
        return self._column("arrival_rps")

    @property
    def config_labels(self) -> tuple[str, ...]:
        """Chosen configuration label per interval."""
        return self._table.labels()

    # ------------------------------------------------------------------
    # summary metrics (paper Section 4.2.4)
    # ------------------------------------------------------------------

    def qos_guarantee(self) -> float:
        """Fraction of intervals whose tail met the target."""
        return qos_guarantee(self.tails_ms, self.target_latency_ms)

    def qos_tardiness(self) -> float:
        """Mean ``QoS_curr/QoS_target`` over violating intervals."""
        return qos_tardiness(self.tails_ms, self.target_latency_ms)

    def total_energy_j(self) -> float:
        """Total system energy over the run, joules.

        Summed sequentially (not ``ndarray.sum``'s pairwise tree) so the
        value is bit-identical to the dataclass-era ``sum()`` loop.
        """
        return float(sum(self._column("energy_j").tolist()))

    def mean_power_w(self) -> float:
        """Mean system power over the run, watts."""
        return float(np.mean(self.powers_w))

    def energy_reduction_vs(self, baseline: "ExperimentResult") -> float:
        """Fractional energy saving relative to a baseline run."""
        base = baseline.total_energy_j()
        if base <= 0:
            raise ValueError("baseline consumed no energy")
        return 1.0 - self.total_energy_j() / base

    def migration_events(self) -> int:
        """Number of intervals whose reconfiguration moved cores."""
        return int(np.count_nonzero(self._column("migration_event")))

    def migrated_cores(self) -> int:
        """Total cores moved in or out of the LC set over the run."""
        return int(self._column("migrated_cores").sum())

    def batch_total_instructions(self) -> float:
        """Instructions retired by batch jobs over the run (sequential
        sum -- see :meth:`total_energy_j`)."""
        return float(sum(self._column("batch_instructions").tolist()))

    def batch_mean_ips(self) -> float:
        """Mean aggregate batch IPS over the run."""
        duration = len(self) * self.interval_s
        return self.batch_total_instructions() / duration

    def mean_utilization(self) -> float:
        """Mean queue utilization over the run (one column reduction)."""
        return float(np.mean(self._column("mean_utilization")))

    def windowed_qos_guarantee(self, window_s: float = 100.0) -> np.ndarray:
        """QoS guarantee per non-overlapping time window (Figure 9)."""
        per_window = max(int(window_s / self.interval_s), 1)
        tails = self.tails_ms
        met = tails <= self.target_latency_ms
        n_windows = len(met) // per_window
        if n_windows == 0:
            return np.array([float(np.mean(met))])
        trimmed = met[: n_windows * per_window]
        return trimmed.reshape(n_windows, per_window).mean(axis=1)

    def slice(self, start_s: float, end_s: float | None = None) -> "ExperimentResult":
        """A sub-result covering ``[start_s, end_s)`` (e.g. post-learning)."""
        end_s = end_s if end_s is not None else float("inf")
        times = self.times_s
        selected = np.flatnonzero((times >= start_s) & (times < end_s))
        if not len(selected):
            raise ValueError("an experiment result needs at least one interval")
        return ExperimentResult(
            self._table.take(selected),
            workload_name=self.workload_name,
            manager_name=self.manager_name,
            target_latency_ms=self.target_latency_ms,
            interval_s=self.interval_s,
        )
