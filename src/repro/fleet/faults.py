"""Fleet fault injection: probabilistic clauses, deterministic schedules.

Real clusters lose nodes, inherit degraded boards and grow stragglers
mid-run (the Monte Cimone characterization makes all three routine).
A scenario pack *declares* faults probabilistically -- "each node dies
with probability 0.2 somewhere after t=300 s" -- but the execution
substrate only ever sees plain frozen specs, so the probabilistic
clause must **lower** into a concrete, seed-derived schedule before
expansion.  That split keeps every determinism property the repo is
built on: the same fleet spec (clauses + seed) always lowers to the
same events, the events reshape the per-node trace levels at expansion
time, and the resulting node specs are ordinary cacheable
:class:`~repro.scenarios.spec.ScenarioSpec`s -- serial and ``--jobs N``
runs are byte-identical because the schedule is fixed before any worker
starts.

Fault semantics (documented in the README's pack reference):

* ``node-death`` -- the node drains to zero offered load from its death
  interval onward; the balancer re-splits the *whole* fleet load across
  the survivors (the board keeps drawing idle power).
* ``degradation`` -- the node's effective capacity is multiplied by
  ``factor`` (< 1) from onset to the end of the run; capacity-aware
  balancers send it less work, and whatever it still receives inflates
  its utilization by ``1/factor``.
* ``straggler`` -- a temporary ``degradation``: the slowdown holds for
  ``duration_s`` seconds, then the node recovers.

Correlated clauses (the resilience layer, :mod:`repro.fleet.resilience`)
fail whole *racks* (the fleet topology's sorted node groups) instead of
independent nodes:

* ``rack-death`` -- one fire/onset draw per rack; every member of a
  struck rack dies together.
* ``cascading-straggler`` -- a seed straggler raises its rack
  neighbours' fault hazard: each neighbour draws against ``spread`` and,
  if struck, begins straggling ``lag_s`` (jittered) seconds after the
  seed's onset.
* ``brownout-wave`` -- one fleet-level draw; racks degrade by
  ``factor`` in block order, staggered ``stagger_s`` apart, for
  ``duration_s`` each.

Every clause additionally takes ``detection_s`` (the failure-detector
lag: the balancer keeps routing to the node until detection) and the
terminal kinds take ``repair_s`` (the node rejoins the pool afterwards).
Clauses that use neither lower exactly as they always did.

The draw discipline that makes all of this parallel-safe: clauses in
declared order, draw units (nodes, racks, or the fleet) in index order,
and a **fixed variate count per unit whether or not the fault fires**
-- cascading-straggler consumes its neighbour draws even for seeds that
never fired -- so editing one clause never reshuffles another clause's
events, and serial ≡ ``--jobs N`` by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import UnknownNameError, UnknownParamError
from repro.scenarios.spec import Params, ParamsLike, freeze_params

#: XORed into the fleet seed for the fault-schedule rng stream so fault
#: draws never alias node seeds or capacity jitter.
_FAULT_SEED_SALT = 0xFA57ED

#: Clause kinds and the parameters each accepts beyond ``kind``.
FAULT_KINDS: dict[str, tuple[str, ...]] = {
    "node-death": (
        "probability",
        "earliest_s",
        "latest_s",
        "detection_s",
        "repair_s",
    ),
    "degradation": (
        "probability",
        "factor",
        "earliest_s",
        "latest_s",
        "detection_s",
        "repair_s",
    ),
    "straggler": (
        "probability",
        "slowdown",
        "duration_s",
        "earliest_s",
        "latest_s",
        "detection_s",
    ),
    "rack-death": (
        "probability",
        "earliest_s",
        "latest_s",
        "detection_s",
        "repair_s",
    ),
    "cascading-straggler": (
        "probability",
        "slowdown",
        "duration_s",
        "spread",
        "lag_s",
        "earliest_s",
        "latest_s",
        "detection_s",
    ),
    "brownout-wave": (
        "probability",
        "factor",
        "duration_s",
        "stagger_s",
        "earliest_s",
        "latest_s",
        "detection_s",
    ),
}

@dataclass(frozen=True)
class FaultClause:
    """One validated fault clause (the declarative form).

    ``probability`` is per draw unit -- node for the independent kinds,
    rack for ``rack-death``, the whole fleet for ``brownout-wave``.  The
    onset time is uniform in ``[earliest_s, latest_s]`` (``latest_s``
    defaults to the end of the trace).  ``factor`` (degradation /
    brownout) is the capacity multiplier; ``slowdown`` (stragglers) is
    the service-time multiplier, i.e. a capacity factor of
    ``1/slowdown``.  ``detection_s`` is how long the failure detector
    takes to notice (the balancer keeps routing until then);
    ``repair_s`` returns a dead/degraded node to the pool.
    """

    kind: str
    probability: float
    factor: float = 1.0
    slowdown: float = 1.0
    duration_s: float = 0.0
    earliest_s: float = 0.0
    latest_s: float | None = None
    detection_s: float = 0.0
    repair_s: float | None = None
    spread: float = 0.5
    lag_s: float = 15.0
    stagger_s: float = 30.0

    @classmethod
    def from_params(cls, params: ParamsLike) -> "FaultClause":
        """Validate a frozen/mapping clause into a :class:`FaultClause`."""
        fields = dict(freeze_params(params))
        kind = fields.pop("kind", None)
        if kind is None:
            raise ValueError("a fault clause needs a 'kind'")
        if kind not in FAULT_KINDS:
            raise UnknownNameError("fault kind", str(kind), sorted(FAULT_KINDS))
        accepted = FAULT_KINDS[kind]
        unknown = sorted(set(fields) - set(accepted))
        if unknown:
            raise UnknownParamError(f"fault clause {kind!r}", unknown, accepted)
        if "probability" not in fields:
            raise ValueError(f"fault clause {kind!r} needs a 'probability'")
        probability = float(fields["probability"])
        if not 0.0 <= probability <= 1.0:
            raise ValueError("fault probability must be within [0, 1]")
        earliest = float(fields.get("earliest_s", 0.0))
        if earliest < 0:
            raise ValueError("earliest_s must be non-negative")
        latest = fields.get("latest_s")
        if latest is not None:
            latest = float(latest)
            if latest < earliest:
                raise ValueError("latest_s must be >= earliest_s")
        values: dict = dict(
            kind=kind,
            probability=probability,
            earliest_s=earliest,
            latest_s=latest,
        )
        detection = float(fields.get("detection_s", 0.0))
        if detection < 0:
            raise ValueError("detection_s must be non-negative")
        values["detection_s"] = detection
        if "repair_s" in fields and fields["repair_s"] is not None:
            repair = float(fields["repair_s"])
            if repair <= 0:
                raise ValueError("repair_s must be positive")
            values["repair_s"] = repair
        if kind in ("degradation", "brownout-wave"):
            if "factor" not in fields:
                raise ValueError(f"a {kind} clause needs a 'factor'")
            factor = float(fields["factor"])
            if not 0.0 < factor < 1.0:
                raise ValueError(f"{kind} factor must be in (0, 1)")
            values["factor"] = factor
        if kind in ("straggler", "cascading-straggler"):
            if "slowdown" not in fields:
                raise ValueError(f"a {kind} clause needs a 'slowdown'")
            slowdown = float(fields["slowdown"])
            if slowdown <= 1.0:
                raise ValueError(f"{kind} slowdown must be > 1")
            values["slowdown"] = slowdown
        if kind in ("straggler", "cascading-straggler", "brownout-wave"):
            if "duration_s" not in fields:
                raise ValueError(f"a {kind} clause needs a 'duration_s'")
            duration = float(fields["duration_s"])
            if duration <= 0:
                raise ValueError(f"{kind} duration_s must be positive")
            values["duration_s"] = duration
        if kind == "cascading-straggler":
            spread = float(fields.get("spread", 0.5))
            if not 0.0 <= spread <= 1.0:
                raise ValueError("cascading-straggler spread must be in [0, 1]")
            lag = float(fields.get("lag_s", 15.0))
            if lag < 0:
                raise ValueError("cascading-straggler lag_s must be >= 0")
            values["spread"] = spread
            values["lag_s"] = lag
        if kind == "brownout-wave":
            stagger = float(fields.get("stagger_s", 30.0))
            if stagger < 0:
                raise ValueError("brownout-wave stagger_s must be >= 0")
            values["stagger_s"] = stagger
        return cls(**values)

    def capacity_multiplier(self) -> float:
        """The per-interval capacity factor this clause applies."""
        if self.kind in ("node-death", "rack-death"):
            return 0.0
        if self.kind in ("degradation", "brownout-wave"):
            return self.factor
        return 1.0 / self.slowdown


def freeze_clauses(clauses) -> tuple[Params, ...]:
    """Normalize a clause list (mappings or frozen pairs) into frozen
    params, validating each clause along the way."""
    frozen = tuple(freeze_params(clause) for clause in clauses)
    for clause in frozen:
        FaultClause.from_params(clause)
    return frozen


@dataclass(frozen=True)
class FaultEvent:
    """One lowered fault: a node, an interval window, a capacity factor.

    ``multiplier`` is 0.0 for a death, the capacity factor otherwise;
    the window is half-open ``[start_interval, end_interval)``.
    ``detect_interval`` is when the failure detector notices (``None``
    means instantly) -- physically the fault holds from
    ``start_interval``, but the balancer only reacts from
    ``detect_interval`` on.  Repair (``end_interval`` before the run
    ends) is assumed observed immediately.
    """

    node: int
    kind: str
    start_interval: int
    end_interval: int
    multiplier: float
    detect_interval: int | None = None

    @property
    def detected_at(self) -> int:
        """The interval the balancer learns of this fault."""
        if self.detect_interval is None:
            return self.start_interval
        return min(self.detect_interval, self.end_interval)


#: A fleet topology: ``(rack_name, node_indices)`` blocks.
Racks = tuple[tuple[str, tuple[int, ...]], ...]


#: The default topology: every node in one rack (index order).
def _default_racks(n_nodes: int) -> Racks:
    return (("rack0", tuple(range(n_nodes))),)


def _fault_events(
    clause: FaultClause,
    members: tuple[int, ...],
    onset_s: float,
    *,
    n_intervals: int,
    interval_s: float,
) -> list[FaultEvent]:
    """The events of ``members`` faulting together from ``onset_s``.

    The one place a :class:`FaultEvent` is built: the window runs for
    ``duration_s`` (the transient kinds), until ``repair_s`` or to the
    end of the run, and detection lags onset by ``detection_s``
    (``None`` means instantly).  An empty window yields no events.
    """
    start = min(int(onset_s / interval_s), n_intervals)
    if clause.duration_s > 0.0:
        end = start + math.ceil(clause.duration_s / interval_s)
    elif clause.repair_s is not None:
        end = start + math.ceil(clause.repair_s / interval_s)
    else:
        end = n_intervals
    end = min(end, n_intervals)
    if start >= end:
        return []
    detect = None
    if clause.detection_s > 0.0:
        detect = min(start + math.ceil(clause.detection_s / interval_s), end)
    multiplier = clause.capacity_multiplier()
    return [
        FaultEvent(
            node=node,
            kind=clause.kind,
            start_interval=start,
            end_interval=end,
            multiplier=multiplier,
            detect_interval=detect,
        )
        for node in members
    ]


def lower_faults(
    clauses: tuple[Params, ...],
    *,
    seed: int,
    n_nodes: int,
    n_intervals: int,
    interval_s: float,
    racks: Racks | None = None,
) -> tuple[FaultEvent, ...]:
    """Lower probabilistic clauses into a deterministic event schedule.

    The draw order is fixed -- clauses in declared order, draw units
    (nodes, racks, or the fleet) in index order, and every unit consumes
    a fixed variate count whether or not the fault fires -- so editing
    one clause's probability never reshuffles the events another clause
    produces.  The rng stream is derived from the fleet seed alone.
    ``racks`` supplies the topology for the correlated kinds (defaults
    to one rack holding every node); the node kinds ignore it.
    """
    if not clauses:
        return ()
    rng = np.random.default_rng(seed ^ _FAULT_SEED_SALT)
    if racks is None or not racks:
        racks = _default_racks(n_nodes)
    duration_s = n_intervals * interval_s
    events: list[FaultEvent] = []
    for clause_params in clauses:
        clause = FaultClause.from_params(clause_params)
        latest = clause.latest_s if clause.latest_s is not None else duration_s
        latest = min(latest, duration_s)
        earliest = min(clause.earliest_s, latest)
        if clause.kind == "cascading-straggler":
            draw = _cascading_strikes
        else:
            draw = _unit_strikes
        for members, onset_s in draw(clause, racks, rng, earliest, latest, n_nodes):
            events.extend(
                _fault_events(
                    clause,
                    members,
                    onset_s,
                    n_intervals=n_intervals,
                    interval_s=interval_s,
                )
            )
    return tuple(events)


def _unit_strikes(
    clause: FaultClause,
    racks: Racks,
    rng: np.random.Generator,
    earliest: float,
    latest: float,
    n_nodes: int,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """``(members, onset_s)`` for every fired draw unit of a clause.

    Each unit takes one fire/onset draw and lists its strikes as
    ``(onset offset, members)``: the node kinds draw per node,
    ``rack-death`` per rack, and ``brownout-wave`` once for the fleet,
    striking rack ``rank`` ``rank x stagger_s`` seconds late.
    """
    if clause.kind == "rack-death":
        units = [((0.0, members),) for _name, members in racks]
    elif clause.kind == "brownout-wave":
        units = [
            tuple(
                (rank * clause.stagger_s, members)
                for rank, (_name, members) in enumerate(racks)
            )
        ]
    else:
        units = [((0.0, (node,)),) for node in range(n_nodes)]
    for unit in units:
        fire = float(rng.random())
        onset_s = float(rng.uniform(earliest, latest))
        if fire < clause.probability:
            for offset_s, members in unit:
                yield members, onset_s + offset_s


def _cascading_strikes(
    clause: FaultClause,
    racks: Racks,
    rng: np.random.Generator,
    earliest: float,
    latest: float,
    n_nodes: int,
) -> Iterator[tuple[tuple[int, ...], float]]:
    """Seed stragglers plus rack-neighbour cascades.

    Two draw phases, both fixed-count: (1) per node, fire/onset for the
    seed straggler; (2) per node, per rack neighbour in index order,
    cascade-fire/lag-jitter -- consumed even when the seed never fired,
    so one node's outcome cannot shift another's draws.
    """
    seeds: list[tuple[bool, float]] = []
    for _node in range(n_nodes):
        fire = float(rng.random())
        onset_s = float(rng.uniform(earliest, latest))
        seeds.append((fire < clause.probability, onset_s))
    rack_of: dict[int, tuple[int, ...]] = {}
    for _name, members in racks:
        for node in members:
            rack_of[node] = members
    for node in range(n_nodes):
        fired, onset_s = seeds[node]
        if fired:
            yield (node,), onset_s
        for neighbor in rack_of.get(node, ()):
            if neighbor == node:
                continue
            cascade = float(rng.random())
            jitter = float(rng.uniform(0.5, 1.5))
            if fired and cascade < clause.spread:
                yield (neighbor,), onset_s + clause.lag_s * jitter


__all__ = [
    "FAULT_KINDS",
    "FaultClause",
    "FaultEvent",
    "freeze_clauses",
    "lower_faults",
]
