"""Frozen fleet descriptions and their expansion into node runs.

A :class:`FleetSpec` is to a cluster what a
:class:`~repro.scenarios.spec.ScenarioSpec` is to one board: plain
frozen data -- workload, fleet trace, per-node manager, node count,
balancer policy, seed -- that is hashable, picklable and fingerprinted.
Expansion (:meth:`FleetSpec.node_specs`) is a pure function of the spec:
the balancer splits the fleet trace into per-node sampled traces, each
node gets a deterministic capacity factor (modelling board-to-board
manufacturing spread) and a derived seed, and the result is a tuple of
ordinary scenario specs.  Those run through the existing
:class:`~repro.sim.batch.BatchRunner` unchanged, so fleets inherit the
process fan-out, serial-vs-parallel determinism and fingerprint caching
of single-node batches for free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.errors import UnknownNameError
from repro.fleet.balancer import BALANCER_FACTORIES, build_balancer
from repro.fleet.faults import FaultEvent, freeze_clauses, lower_faults
from repro.fleet.resilience import split_with_timeline
from repro.scenarios.spec import (
    DEFAULT_SEED,
    SCHEMA_VERSION,
    Params,
    ScenarioSpec,
    TraceSpec,
    freeze_params,
    thaw_params,
)
from repro.sim.queueing import KERNEL_VERSION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.aggregate import FleetOutcome
    from repro.sim.batch import BatchRunner

#: Bump to invalidate fleet-derived node fingerprints when the expansion
#: semantics change (capacity model, seed derivation, balancer contract).
#: 2 = fault clauses + heterogeneous workload mixes; 3 = topology racks,
#: correlated fault clauses and detection/repair timelines; 4 = one
#: payload for every spec, topology included.
FLEET_SCHEMA_VERSION = 4

#: Offset mixed into per-node seeds so node RNG streams never collide
#: with the fleet seed itself or with neighbouring single-node runs.
_NODE_SEED_STRIDE = 7919


@dataclass(frozen=True)
class FleetSpec:
    """N simulated Hipster-managed nodes behind one load balancer.

    Parameters
    ----------
    workload:
        Workload registry key, served identically by every node.
    trace:
        Fleet-level offered load as a fraction of the *nominal* fleet
        capacity (``n_nodes`` ideal boards).
    manager:
        Per-node manager factory key (each node runs its own instance).
    n_nodes:
        Fleet size.
    balancer / balancer_params:
        Load-balancer key in
        :data:`repro.fleet.balancer.BALANCER_FACTORIES` plus keyword
        overrides (e.g. ``target_level`` for ``"power-aware"``).
    capacity_spread:
        Half-width of the uniform per-node capacity jitter around 1.0;
        0 makes the fleet perfectly homogeneous.
    manager_params / workload_params / platform / batch_jobs:
        Forwarded to every node's :class:`ScenarioSpec`.
    workload_mix:
        Optional heterogeneous node mix: ``{workload: node_count}``
        pairs summing to ``n_nodes`` (e.g. memcached and websearch
        nodes behind one balancer).  Empty means every node serves
        ``workload``.  Nodes are assigned in sorted-workload-name
        blocks, deterministically.
    faults:
        Probabilistic fault clauses (see :mod:`repro.fleet.faults`),
        lowered into a deterministic seed-derived event schedule at
        expansion time.
    topology:
        Optional rack/zone layout: ``{rack_name: node_count}`` pairs
        summing to ``n_nodes``.  Nodes are assigned in
        sorted-rack-name blocks (the frozen-params order), exactly
        like ``workload_mix``.  The correlated fault kinds
        (``rack-death``, ``cascading-straggler``, ``brownout-wave``)
        draw per rack; empty means one rack holding the whole fleet.
    seed:
        Fleet seed; node seeds, capacity factors and fault schedules
        derive from it.
    interval_s:
        Dispatch granularity of the balancer (matches the engine's
        monitoring interval).
    label:
        Free-form display name; excluded from the fingerprint.
    """

    workload: str
    trace: TraceSpec
    manager: str
    n_nodes: int = 8
    balancer: str = "round-robin"
    balancer_params: Params = ()
    capacity_spread: float = 0.08
    manager_params: Params = ()
    workload_params: Params = ()
    workload_mix: Params = ()
    faults: tuple[Params, ...] = ()
    topology: Params = ()
    platform: str = "juno_r1"
    batch_jobs: str | None = None
    seed: int = DEFAULT_SEED
    interval_s: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        for attr in ("balancer_params", "manager_params", "workload_params"):
            object.__setattr__(self, attr, freeze_params(getattr(self, attr)))
        object.__setattr__(self, "workload_mix", freeze_params(self.workload_mix))
        object.__setattr__(self, "topology", freeze_params(self.topology))
        object.__setattr__(self, "faults", freeze_clauses(self.faults))
        if self.n_nodes < 1:
            raise ValueError("a fleet needs at least one node")
        if not 0.0 <= self.capacity_spread < 1.0:
            raise ValueError("capacity_spread must be in [0, 1)")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.balancer not in BALANCER_FACTORIES:
            raise UnknownNameError(
                "balancer", self.balancer, sorted(BALANCER_FACTORIES)
            )
        if self.workload_mix:
            counts = [count for _, count in self.workload_mix]
            if any(not isinstance(c, int) or c < 1 for c in counts):
                raise ValueError("workload_mix counts must be positive ints")
            if sum(counts) != self.n_nodes:
                raise ValueError(
                    f"workload_mix counts sum to {sum(counts)}, "
                    f"but the fleet has {self.n_nodes} nodes"
                )
        if self.topology:
            counts = [count for _, count in self.topology]
            if any(not isinstance(c, int) or c < 1 for c in counts):
                raise ValueError("topology rack counts must be positive ints")
            if sum(counts) != self.n_nodes:
                raise ValueError(
                    f"topology rack counts sum to {sum(counts)}, "
                    f"but the fleet has {self.n_nodes} nodes"
                )
        # Node-field validation (workload/manager/platform/batch keys)
        # happens through ScenarioSpec's own __post_init__; build a probe
        # per distinct workload so a bad fleet spec fails at
        # construction, not at expansion.
        for workload in dict.fromkeys(
            (self.workload, *(name for name, _ in self.workload_mix))
        ):
            ScenarioSpec(
                workload=workload,
                trace=self.trace,
                manager=self.manager,
                manager_params=self.manager_params,
                workload_params=self.workload_params,
                platform=self.platform,
                batch_jobs=self.batch_jobs,
            )

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------

    def with_(self, **changes: Any) -> "FleetSpec":
        """A copy with the given fields replaced (params re-frozen)."""
        return replace(self, **changes)

    def fingerprint(self) -> str:
        """Stable identity over every expansion-affecting field."""
        payload = (
            FLEET_SCHEMA_VERSION,
            SCHEMA_VERSION,
            KERNEL_VERSION,
            self.workload,
            self.workload_params,
            self.trace,
            self.manager,
            self.manager_params,
            self.n_nodes,
            self.balancer,
            self.balancer_params,
            self.capacity_spread,
            self.workload_mix,
            self.faults,
            self.platform,
            self.batch_jobs,
            self.seed,
            self.interval_s,
            self.topology,
        )
        return hashlib.sha256(repr(payload).encode()).hexdigest()[:24]

    def describe(self) -> str:
        """Short human-readable identity for logs and reports."""
        return self.label or (
            f"{self.workload}/{self.manager}x{self.n_nodes}/{self.balancer}"
        )

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------

    def node_capacities(self) -> np.ndarray:
        """Per-node capacity factors around 1.0, derived from the seed.

        Capacity scales a node's achievable throughput: the expansion
        divides the workload's service demand by it, so a 0.92-capacity
        board is 8% slower than nominal.  The draw uses its own stream
        (seed XOR a constant) so it never aliases the run seeds.
        """
        rng = np.random.default_rng(self.seed ^ 0x5EED5)
        jitter = rng.uniform(-1.0, 1.0, self.n_nodes)
        return np.round(1.0 + self.capacity_spread * jitter, 6)

    def _memo(self, name: str, compute: Callable[[], Any]) -> Any:
        """``compute()`` once per instance, kept in ``__dict__``.

        The spec is frozen, so every derivation below is a pure function
        of its fields; equality, hashing and fingerprints read only the
        fields, so a memoized instance stays interchangeable with a
        fresh equal one.  Arrays are returned read-only, since every
        caller shares the one copy.
        """
        cached = self.__dict__.get(name)
        if cached is None:
            cached = compute()
            if isinstance(cached, np.ndarray):
                cached.flags.writeable = False
            object.__setattr__(self, name, cached)
        return cached

    def fleet_loads(self) -> np.ndarray:
        """Fleet offered load per interval (sampled at interval midpoints,
        matching the engine's own trace sampling).  Memoized, read-only."""
        return self._memo("_fleet_loads_memo", self._sample_fleet_loads)

    def _sample_fleet_loads(self) -> np.ndarray:
        trace = self.trace.build()
        n = trace.n_intervals(self.interval_s)
        if n <= 0:
            raise ValueError("the fleet trace is shorter than one interval")
        mids = (np.arange(n) + 0.5) * self.interval_s
        return trace.load_at_many(mids)

    def node_seed(self, index: int) -> int:
        """The run seed of node ``index``."""
        return self.seed + _NODE_SEED_STRIDE * (index + 1)

    def node_workloads(self) -> tuple[str, ...]:
        """Each node's workload key (heterogeneity hook).

        Homogeneous fleets serve ``workload`` everywhere; a
        ``workload_mix`` assigns nodes in blocks, sorted by workload
        name (the frozen-params order), so the assignment is a pure
        function of the spec.
        """
        if not self.workload_mix:
            return (self.workload,) * self.n_nodes
        assignment: list[str] = []
        for name, count in self.workload_mix:
            assignment.extend([name] * count)
        return tuple(assignment)

    def is_heterogeneous(self) -> bool:
        """Whether nodes serve more than one workload."""
        return len(set(self.node_workloads())) > 1

    def rack_blocks(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """The topology as ``(rack_name, node_indices)`` blocks.

        Racks are assigned in sorted-name blocks over the node index
        space (the frozen-params order), so the layout is a pure
        function of the spec.  Without a ``topology`` the whole fleet
        is one rack.
        """
        if not self.topology:
            return (("rack0", tuple(range(self.n_nodes))),)
        blocks: list[tuple[str, tuple[int, ...]]] = []
        cursor = 0
        for name, count in self.topology:
            blocks.append((name, tuple(range(cursor, cursor + count))))
            cursor += count
        return tuple(blocks)

    # ------------------------------------------------------------------
    # fault lowering
    # ------------------------------------------------------------------

    def fault_schedule(self) -> tuple[FaultEvent, ...]:
        """The concrete fault events the clauses lower to.

        A pure function of ``(faults, seed, n_nodes, trace length)`` --
        computed in the parent process before any node run dispatches,
        so serial and parallel executions see the same schedule.
        Memoized.
        """
        return self._memo("_fault_schedule_memo", self._lower_faults)

    def _lower_faults(self) -> tuple[FaultEvent, ...]:
        if not self.faults:
            return ()
        n_intervals = len(self.fleet_loads())
        return lower_faults(
            self.faults,
            seed=self.seed,
            n_nodes=self.n_nodes,
            n_intervals=n_intervals,
            interval_s=self.interval_s,
            racks=self.rack_blocks(),
        )

    def node_specs(self) -> tuple[ScenarioSpec, ...]:
        """Expand into one :class:`ScenarioSpec` per node.

        Pure data in, pure data out: the same fleet spec always expands
        to the same node specs (hence the same fingerprints), no matter
        which process performs the expansion.  The expansion is memoized
        on the instance -- re-dispatching a warm fleet through the batch
        runner's in-memory tier costs cache lookups, not a balancer run.
        """
        return self._memo("_node_specs_memo", self._expand_node_specs)

    def planned_levels(self) -> np.ndarray:
        """The ``(n_intervals, n_nodes)`` offered-load plan the
        expansion encodes into each node's sampled trace (before
        rounding).  Memoized, read-only."""
        return self._memo("_planned_levels_memo", self._split_levels)

    def _split_levels(self) -> np.ndarray:
        # Every faulted fleet splits through the one timeline; instant
        # detection is the case where known and physical capacities agree.
        events = self.fault_schedule()
        if not events:
            return self.faultless_levels()
        balancer = build_balancer(self.balancer, self.balancer_params)
        return split_with_timeline(
            self.fleet_loads(), self.node_capacities(), balancer, events
        )

    def faultless_levels(self) -> np.ndarray:
        """The counterfactual plan with no faults at all -- the
        blast-radius baseline the resilience report diffs against."""
        balancer = build_balancer(self.balancer, self.balancer_params)
        return balancer.split(self.fleet_loads(), self.node_capacities())

    def _expand_node_specs(self) -> tuple[ScenarioSpec, ...]:
        from repro.scenarios import factories

        capacities = self.node_capacities()
        levels = self.planned_levels()
        workloads = self.node_workloads()
        base_demand_ms = {
            workload: factories.build_workload(
                workload, self.workload_params
            ).demand_mean_ms
            for workload in dict.fromkeys(workloads)
        }

        specs = []
        for index in range(self.n_nodes):
            node_params = thaw_params(self.workload_params)
            node_params["demand_mean_ms"] = round(
                base_demand_ms[workloads[index]] / capacities[index], 9
            )
            specs.append(
                ScenarioSpec(
                    workload=workloads[index],
                    trace=TraceSpec.sampled(
                        # tolist() keeps the same doubles but hands the
                        # TraceSpec float-conversion loop Python floats,
                        # which matters at 1024 nodes x 1400 intervals.
                        np.round(levels[:, index], 6).tolist(),
                        interval_s=self.interval_s,
                    ),
                    manager=self.manager,
                    manager_params=self.manager_params,
                    workload_params=node_params,
                    platform=self.platform,
                    batch_jobs=self.batch_jobs,
                    seed=self.node_seed(index),
                    label=f"{self.describe()}/node{index:02d}",
                )
            )
        return tuple(specs)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, runner: "BatchRunner | None" = None) -> "FleetOutcome":
        """Run every node through the batch layer and aggregate (one
        :func:`~repro.fleet.aggregate.run_specs` batch).

        Node runs land in the runner's fingerprint cache individually,
        so re-running a fleet after a code or spec change only
        recomputes the nodes it affected.
        """
        from repro.fleet.aggregate import run_specs

        (outcome,) = run_specs([self], runner)
        return outcome
