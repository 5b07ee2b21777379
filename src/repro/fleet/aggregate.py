"""Fleet-level aggregation: what the cluster operator's dashboard shows.

A fleet run is N independent node runs; this module folds them into the
quantities that only exist at cluster scope -- total power draw, the
tail-of-tails QoS (a user's request is slow if *its* node was slow, and
the fleet's p-worst interval is governed by the worst node), and the
utilization skew the balancer policy induced across nodes.

The fold is **streaming**: as each node outcome arrives (in whatever
order the batch runner completes them), :class:`FleetAccumulator`
reduces its observation table to a :class:`NodeReduction` -- a handful
of scalars plus two per-interval series -- and folds it, *in node
order*, into fixed-size fleet accumulators.  The node's full
observation table is dropped immediately, so a 1024-node sweep holds
``O(n_nodes + n_intervals)`` aggregation state instead of every node's
observations; out-of-order completions buffer only their reductions.
Folding in node order keeps every aggregate bit-identical to the
stacked ``np.sum``/``np.max`` reductions it replaced (axis-0 reduction
is a sequential left fold), no matter the completion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.errors import ExecutionError
from repro.fleet.spec import FleetSpec
from repro.scenarios.spec import ScenarioOutcome, ScenarioSpec
from repro.sim.batch import BatchRunner
from repro.sim.latency import column_mean, qos_tardiness


@dataclass(frozen=True, eq=False)
class NodeReduction:
    """One node's contribution to the fleet fold.

    Everything the fleet metrics and the per-node report table need,
    reduced from the node's observation columns exactly once: five
    scalars plus the two per-interval series that feed the fleet-level
    running max (tails) and running sum (power).
    """

    index: int
    n_intervals: int
    target_latency_ms: float
    mean_power_w: float
    qos_guarantee: float
    mean_utilization: float
    mean_load: float
    total_energy_j: float
    tails_ms: np.ndarray
    powers_w: np.ndarray
    #: max(tails) / target -- the node's worst interval relative to its
    #: own QoS target; the resilience report's survivor-overload probe.
    peak_tail_ratio: float = 0.0

    @classmethod
    def from_outcome(cls, index: int, outcome: ScenarioOutcome) -> "NodeReduction":
        """Reduce one node outcome's columns (each computed once)."""
        result = outcome.result
        return cls(
            index=index,
            n_intervals=len(result),
            target_latency_ms=result.target_latency_ms,
            mean_power_w=result.mean_power_w(),
            qos_guarantee=result.qos_guarantee(),
            mean_utilization=result.mean_utilization(),
            mean_load=column_mean(result.loads),
            total_energy_j=result.total_energy_j(),
            tails_ms=result.tails_ms,
            powers_w=result.powers_w,
            peak_tail_ratio=float(np.max(result.tails_ms) / result.target_latency_ms),
        )


class FleetAccumulator:
    """Folds node outcomes into a :class:`FleetOutcome`, node by node.

    ``add()`` accepts nodes in any completion order; reductions are
    buffered until their node index is next in sequence and then folded,
    so the running tails-max and power-sum accumulate in node order
    (bit-identical to the pre-streaming stacked reductions) while full
    node observations are never retained.
    """

    def __init__(self, spec: FleetSpec):
        if spec.n_nodes < 1:
            raise ValueError("a fleet outcome needs at least one node")
        self._spec = spec
        n = spec.n_nodes
        self._node_powers = np.empty(n)
        self._node_qos = np.empty(n)
        self._node_utils = np.empty(n)
        self._node_loads = np.empty(n)
        self._node_targets = np.empty(n)
        self._node_peaks = np.empty(n)
        self._total_energy = 0.0
        self._fleet_tails: np.ndarray | None = None
        self._fleet_powers: np.ndarray | None = None
        self._fleet_ratio: np.ndarray | None = None
        self._target: float | None = None
        self._n_intervals: int | None = None
        self._next = 0
        self._pending: dict[int, NodeReduction] = {}

    def add(self, index: int, outcome: ScenarioOutcome) -> None:
        """Consume one node's outcome (any order; folded in node order)."""
        if not 0 <= index < self._spec.n_nodes:
            raise IndexError(
                f"node index {index} outside fleet of {self._spec.n_nodes}"
            )
        if index < self._next or index in self._pending:
            raise ValueError(f"node {index} added twice")
        self._pending[index] = NodeReduction.from_outcome(index, outcome)
        while self._next in self._pending:
            self._fold(self._pending.pop(self._next))
            self._next += 1

    def _fold(self, node: NodeReduction) -> None:
        if self._n_intervals is None:
            self._n_intervals = node.n_intervals
            self._target = node.target_latency_ms
            self._fleet_tails = node.tails_ms.copy()
            self._fleet_powers = node.powers_w.copy()
            self._fleet_ratio = node.tails_ms / node.target_latency_ms
        else:
            if node.n_intervals != self._n_intervals:
                raise ValueError(
                    "nodes ran unequal interval counts: "
                    f"{sorted({self._n_intervals, node.n_intervals})}"
                )
            np.maximum(self._fleet_tails, node.tails_ms, out=self._fleet_tails)
            self._fleet_powers += node.powers_w
            # Normalized tail-of-tails: the per-interval worst node
            # *relative to its own target* -- on a heterogeneous fleet
            # (mixed workloads, different targets) the absolute max is
            # not what violates QoS.
            np.maximum(
                self._fleet_ratio,
                node.tails_ms / node.target_latency_ms,
                out=self._fleet_ratio,
            )
        i = node.index
        self._node_powers[i] = node.mean_power_w
        self._node_qos[i] = node.qos_guarantee
        self._node_utils[i] = node.mean_utilization
        self._node_loads[i] = node.mean_load
        self._node_targets[i] = node.target_latency_ms
        self._node_peaks[i] = node.peak_tail_ratio
        self._total_energy += node.total_energy_j

    def finish(self) -> "FleetOutcome":
        """The aggregated fleet outcome; every node must have arrived."""
        if self._next != self._spec.n_nodes:
            missing = self._spec.n_nodes - self._next
            raise ValueError(
                f"fleet aggregation incomplete: {missing} node(s) missing "
                f"(next expected index {self._next})"
            )
        return FleetOutcome(
            spec=self._spec,
            node_powers_w=self._node_powers,
            node_qos=self._node_qos,
            node_utils=self._node_utils,
            node_loads=self._node_loads,
            fleet_tails=self._fleet_tails,
            fleet_powers=self._fleet_powers,
            total_energy=self._total_energy,
            target_latency_ms=self._target,
            node_targets=self._node_targets,
            fleet_ratio=self._fleet_ratio,
            node_peak_ratios=self._node_peaks,
        )


@dataclass(frozen=True, eq=False)
class FleetOutcome:
    """What a fleet run produced, in aggregated (streamed) form.

    Holds only fixed-size reductions -- per-node scalar arrays plus the
    two per-interval fleet series -- never the per-node observation
    tables; build one with :class:`FleetAccumulator`.
    """

    spec: FleetSpec
    node_powers_w: np.ndarray
    node_qos: np.ndarray
    node_utils: np.ndarray
    node_loads: np.ndarray
    fleet_tails: np.ndarray
    fleet_powers: np.ndarray
    total_energy: float
    target_latency_ms: float
    #: Per-node QoS targets (ms).
    node_targets: np.ndarray
    #: Per-interval max of (node tail / node target): the normalized
    #: tail-of-tails a mixed-workload fleet is judged by.
    fleet_ratio: np.ndarray
    #: Per-node max(tail)/target peaks.
    node_peak_ratios: np.ndarray

    def __post_init__(self) -> None:
        if len(self.node_powers_w) < 1:
            raise ValueError("a fleet outcome needs at least one node")
        for arr in (
            self.node_powers_w,
            self.node_qos,
            self.node_utils,
            self.node_loads,
            self.fleet_tails,
            self.fleet_powers,
            self.node_targets,
            self.fleet_ratio,
            self.node_peak_ratios,
        ):
            arr.flags.writeable = False

    # ------------------------------------------------------------------
    # per-node views
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Fleet size."""
        return len(self.node_powers_w)

    # ------------------------------------------------------------------
    # fleet-level metrics
    # ------------------------------------------------------------------

    def total_mean_power_w(self) -> float:
        """Aggregate fleet power draw, watts."""
        return float(self.node_powers_w.sum())

    def total_energy_j(self) -> float:
        """Total fleet energy over the run, joules."""
        return self.total_energy

    def fleet_tails_ms(self) -> np.ndarray:
        """Tail-of-tails per interval: the worst node's tail latency."""
        return self.fleet_tails

    @property
    def is_heterogeneous(self) -> bool:
        """Whether nodes ran against different QoS targets (mixed
        workloads behind one balancer)."""
        return bool(np.ptp(self.node_targets) > 0.0)

    def fleet_qos_guarantee(self) -> float:
        """Fraction of intervals in which *every* node met its target.

        Homogeneous fleets keep the original absolute formulation
        (bit-identical to pre-heterogeneity outputs); a mixed-workload
        fleet judges each node against its own workload's target via
        the normalized tail-of-tails.
        """
        if self.is_heterogeneous:
            met = self.fleet_ratio <= 1.0
        else:
            met = self.fleet_tails <= self.target_latency_ms
        return float(np.count_nonzero(met) / met.size)

    def fleet_qos_tardiness(self) -> float:
        """Mean tail-of-tails overshoot over violating intervals only
        (0.0 when nothing violates, matching the single-node
        :func:`repro.sim.latency.qos_tardiness` convention).  On a
        heterogeneous fleet the overshoot is measured on the normalized
        (per-node-target) tail-of-tails."""
        if self.is_heterogeneous:
            return qos_tardiness(self.fleet_ratio, 1.0)
        return qos_tardiness(self.fleet_tails, self.target_latency_ms)

    def utilization_skew(self) -> float:
        """Coefficient of variation of per-node utilization.

        0 means the balancer spread work perfectly evenly; a
        consolidating policy (power-aware) runs high skew on purpose.
        """
        utils = self.node_utils
        mean = float(np.mean(utils))
        if mean <= 0:
            return 0.0
        return float(np.std(utils) / mean)

    def fleet_powers_w(self) -> np.ndarray:
        """Aggregate fleet power per interval, watts."""
        return self.fleet_powers

    def resilience_report(self):
        """The blast-radius digest, or ``None`` for a fleet without fault
        clauses.  A fleet whose clauses lower to no events still gets
        one (``0 event(s)``); instant detection is zero lag."""
        if not self.spec.faults:
            return None
        from repro.fleet.resilience import build_resilience_report

        return build_resilience_report(
            events=self.spec.fault_schedule(),
            planned_levels=self.spec.planned_levels(),
            baseline_levels=self.spec.faultless_levels(),
            fleet_ratio=self.fleet_ratio,
            interval_s=self.spec.interval_s,
            node_peak_ratios=self.node_peak_ratios,
        )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        """The fleet report: headline metrics plus a per-node table.

        Every cell reads a reduction that was computed exactly once at
        aggregation time (the pre-streaming implementation recomputed
        the per-node means twice: once for the table, once for the
        skew)."""
        # Imported lazily: repro.experiments itself imports the fleet
        # package (fleet_scale), so a module-level import would cycle.
        from repro.experiments.reporting import ascii_table, series_block

        capacities = self.spec.node_capacities()
        # Heterogeneity / fault hooks: extra columns and a fault-event
        # line appear only when the spec uses them, so plain fleet
        # reports stay byte-identical to the pre-pack layout.
        hetero = self.spec.is_heterogeneous()
        workloads = self.spec.node_workloads() if hetero else None
        node_columns = ["node", "capacity", "mean load", "QoS", "power", "util"]
        if hetero:
            node_columns.insert(1, "workload")
        rows = []
        for index in range(self.n_nodes):
            row = [
                f"node{index:02d}",
                f"{capacities[index]:.3f}",
                f"{self.node_loads[index] * 100:.1f}%",
                f"{self.node_qos[index] * 100:.1f}%",
                f"{self.node_powers_w[index]:.2f}W",
                f"{self.node_utils[index]:.2f}",
            ]
            if hetero:
                row.insert(1, workloads[index])
            rows.append(row)
        fault_lines = []
        events = self.spec.fault_schedule()
        if events:
            rendered = ", ".join(
                f"node{e.node:02d}:{e.kind}@[{e.start_interval},"
                f"{e.end_interval})"
                for e in events
            )
            fault_lines.append(f"faults: {len(events)} event(s) -- {rendered}")
        report = self.resilience_report()
        if report is not None:
            fault_lines.extend(report.render_lines())
        return "\n".join(
            [
                f"Fleet -- {self.spec.describe()} "
                f"({self.n_nodes} nodes, balancer={self.spec.balancer})",
                *fault_lines,
                series_block("fleet power (W)", self.fleet_powers_w(), unit="W"),
                series_block(
                    "tail-of-tails (ms)", self.fleet_tails_ms(), unit="ms"
                ),
                ascii_table(
                    ["metric", "value"],
                    [
                        ["total mean power", f"{self.total_mean_power_w():.2f} W"],
                        ["total energy", f"{self.total_energy_j():.0f} J"],
                        [
                            "fleet QoS guarantee",
                            f"{self.fleet_qos_guarantee() * 100:.1f}%",
                        ],
                        [
                            "tail-of-tails tardiness",
                            f"{self.fleet_qos_tardiness():.2f}",
                        ],
                        ["utilization skew (CV)", f"{self.utilization_skew():.3f}"],
                    ],
                ),
                ascii_table(
                    node_columns,
                    rows,
                    title="Per-node breakdown:",
                ),
            ]
        )


def run_specs(
    specs: Iterable[ScenarioSpec | FleetSpec],
    runner: BatchRunner | None = None,
    *,
    on_failure: str = "raise",
) -> list:
    """Run scenarios and fleets, in any mix, as one batch.

    Every fleet expands into its :meth:`~FleetSpec.node_specs`, and the
    whole flat list goes through **one**
    :meth:`~repro.sim.batch.BatchRunner.iter_run` call, so the runner
    deduplicates and schedules across every entry at once.  Node
    outcomes stream into per-fleet :class:`FleetAccumulator`s in
    completion order: each node is reduced to its column aggregates and
    dropped, so a fleet's footprint is bounded by its accumulator (and
    the runner's LRU tier), not by ``n_nodes x n_intervals`` observation
    storage.

    Returns one ``ScenarioOutcome`` / :class:`FleetOutcome` per input,
    in input order.  ``on_failure`` follows ``iter_run``: ``"raise"``
    raises the first definitive failure after every other spec ran;
    with ``"yield"`` a failed entry's slot holds its
    :class:`~repro.errors.ExecutionError` (for a fleet, that of its
    lowest-indexed failed node).  A runner is created, and closed
    before returning, only when ``runner`` is ``None``.
    """
    entries = list(specs)
    flat: list[ScenarioSpec] = []
    owners: list[tuple[int, int | None]] = []  # flat index -> (entry, node)
    accumulators: dict[int, FleetAccumulator] = {}
    for index, spec in enumerate(entries):
        if isinstance(spec, FleetSpec):
            accumulators[index] = FleetAccumulator(spec)
            nodes = spec.node_specs()
            flat.extend(nodes)
            owners.extend((index, node) for node in range(len(nodes)))
        else:
            flat.append(spec)
            owners.append((index, None))
    outcomes: list[Any] = [None] * len(entries)
    failed_nodes: dict[int, dict[int, ExecutionError]] = {}
    active = BatchRunner() if runner is None else runner
    try:
        for position, outcome in active.iter_run(flat, on_failure=on_failure):
            index, node = owners[position]
            if node is None:
                outcomes[index] = outcome
            elif isinstance(outcome, ExecutionError):
                failed_nodes.setdefault(index, {})[node] = outcome
            else:
                accumulators[index].add(node, outcome)
    finally:
        if runner is None:
            active.close()
    for index, accumulator in accumulators.items():
        errors = failed_nodes.get(index)
        outcomes[index] = errors[min(errors)] if errors else accumulator.finish()
    return outcomes
