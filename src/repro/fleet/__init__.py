"""Fleet-scale simulation: many Hipster-managed nodes behind a balancer.

The paper manages one Juno board; a production service runs thousands.
This package opens the node-count axis: a frozen, fingerprinted
:class:`~repro.fleet.spec.FleetSpec` describes N simulated nodes and a
load-balancer policy, expands into ordinary per-node
:class:`~repro.scenarios.spec.ScenarioSpec`s (each node runs the full
single-board co-simulator with its own manager instance), fans out over
the existing :class:`~repro.sim.batch.BatchRunner`, and folds node runs
into cluster-level metrics (total watts, tail-of-tails QoS, utilization
skew) in :mod:`repro.fleet.aggregate`.

Importing this package registers the fleet scenario families
(``fleet-diurnal``, ``fleet-ramp``, ``fleet-collocation``) in
:data:`repro.scenarios.DEFAULT_REGISTRY`.
"""

from repro.fleet import families  # noqa: F401  (registers fleet families)
from repro.fleet.aggregate import (
    FleetAccumulator,
    FleetOutcome,
    NodeReduction,
    run_specs,
)
from repro.fleet.balancer import (
    BALANCER_FACTORIES,
    LeastLoadedBalancer,
    LoadBalancer,
    PowerAwareBalancer,
    RoundRobinBalancer,
    build_balancer,
)
from repro.fleet.faults import (
    FAULT_KINDS,
    FaultClause,
    FaultEvent,
    lower_faults,
)
from repro.fleet.resilience import (
    ResilienceReport,
    build_resilience_report,
    split_with_timeline,
    timeline_multipliers,
)
from repro.fleet.spec import FLEET_SCHEMA_VERSION, FleetSpec

__all__ = [
    "BALANCER_FACTORIES",
    "FAULT_KINDS",
    "FLEET_SCHEMA_VERSION",
    "FaultClause",
    "FaultEvent",
    "FleetAccumulator",
    "FleetOutcome",
    "FleetSpec",
    "NodeReduction",
    "ResilienceReport",
    "build_resilience_report",
    "lower_faults",
    "run_specs",
    "split_with_timeline",
    "timeline_multipliers",
    "LeastLoadedBalancer",
    "LoadBalancer",
    "PowerAwareBalancer",
    "RoundRobinBalancer",
    "build_balancer",
]
