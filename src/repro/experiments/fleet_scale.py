"""Fleet scaling: power and QoS versus node count and balancer policy.

The paper's evaluation stops at one board; this artifact asks the
cluster operator's question instead: as the same diurnal day is served
by ever larger fleets, how do total power, tail-of-tails QoS and
utilization skew move under each load-balancing policy?  Capacity-
oblivious round-robin lets board-to-board heterogeneity set the fleet
tail, least-loaded equalizes utilization, and power-aware consolidation
parks lightly-loaded nodes on small cores at the cost of deliberate
skew -- the cluster-level analogue of Hipster's own core-mapping story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.experiments.reporting import ascii_table
from repro.experiments.runner import DEFAULT_SEED
from repro.fleet.aggregate import FleetOutcome, run_specs
from repro.scenarios import DEFAULT_REGISTRY
from repro.sim.batch import BatchRunner

#: Balancer line-up, in display order.
BALANCERS = ("round-robin", "least-loaded", "power-aware")

#: Node-count axis: quick keeps CI fast, full exercises a real fleet.
QUICK_NODE_COUNTS = (1, 2, 4, 8)
FULL_NODE_COUNTS = (1, 4, 16, 64)


@dataclass(frozen=True)
class FleetScaleRow:
    """One (balancer, node-count) cell of the scaling grid."""

    balancer: str
    n_nodes: int
    total_power_w: float
    power_per_node_w: float
    fleet_qos_pct: float
    tardiness: float
    utilization_skew: float
    total_energy_j: float


@dataclass(frozen=True)
class FleetScaleResult:
    """The scaling grid plus the fleet outcomes it was derived from."""

    rows: tuple[FleetScaleRow, ...]
    outcomes: tuple[FleetOutcome, ...]
    workload: str

    def row(self, balancer: str, n_nodes: int) -> FleetScaleRow:
        """The grid cell for one balancer at one fleet size."""
        for row in self.rows:
            if row.balancer == balancer and row.n_nodes == n_nodes:
                return row
        raise KeyError(f"no row for {balancer!r} x {n_nodes}")

    def balancers(self) -> tuple[str, ...]:
        """Balancer policies present, in display order."""
        seen = []
        for row in self.rows:
            if row.balancer not in seen:
                seen.append(row.balancer)
        return tuple(seen)

    def node_counts(self) -> tuple[int, ...]:
        """The node-count axis, ascending."""
        return tuple(sorted({row.n_nodes for row in self.rows}))

    def render(self) -> str:
        table_rows = [
            [
                row.balancer,
                str(row.n_nodes),
                f"{row.total_power_w:.2f}",
                f"{row.power_per_node_w:.2f}",
                f"{row.fleet_qos_pct:.1f}%",
                f"{row.tardiness:.2f}",
                f"{row.utilization_skew:.3f}",
            ]
            for row in self.rows
        ]
        return "\n".join(
            [
                f"Fleet scaling -- {self.workload} diurnal day, "
                "power + QoS vs node count and balancer",
                ascii_table(
                    [
                        "balancer",
                        "nodes",
                        "power (W)",
                        "W/node",
                        "fleet QoS",
                        "tail-of-tails tardiness",
                        "util skew",
                    ],
                    table_rows,
                ),
            ]
        )


def run(
    workload: str = "memcached",
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
    node_counts: Sequence[int] | None = None,
    balancers: Sequence[str] = BALANCERS,
) -> FleetScaleResult:
    """Regenerate the fleet-scaling artifact."""
    if node_counts is None:
        node_counts = QUICK_NODE_COUNTS if quick else FULL_NODE_COUNTS
    fleet_specs = [
        DEFAULT_REGISTRY.build(
            "fleet-diurnal",
            workload=workload,
            n_nodes=n_nodes,
            balancer=balancer,
            quick=quick,
            seed=seed,
        )
        for balancer in balancers
        for n_nodes in node_counts
    ]

    # One batch over every node of every fleet: the runner dedupes
    # shared node specs and fans the whole grid out across its pool.
    outcomes = run_specs(fleet_specs, runner)

    rows = tuple(
        FleetScaleRow(
            balancer=outcome.spec.balancer,
            n_nodes=outcome.n_nodes,
            total_power_w=outcome.total_mean_power_w(),
            power_per_node_w=outcome.total_mean_power_w() / outcome.n_nodes,
            fleet_qos_pct=outcome.fleet_qos_guarantee() * 100.0,
            tardiness=outcome.fleet_qos_tardiness(),
            utilization_skew=outcome.utilization_skew(),
            total_energy_j=outcome.total_energy_j(),
        )
        for outcome in outcomes
    )
    return FleetScaleResult(rows=rows, outcomes=tuple(outcomes), workload=workload)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
