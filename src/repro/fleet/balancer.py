"""Fleet load balancers: split an offered-load trace across nodes.

A balancer is the front-end dispatcher of a simulated cluster: given the
fleet-level offered load per monitoring interval (a fraction of the
fleet's *nominal* capacity, ``n_nodes`` identical boards) and the
per-node capacity factors (real clusters are never perfectly
homogeneous -- cf. the Monte Cimone characterization), it decides how
much load each node serves each interval.  The output is a
``(n_intervals, n_nodes)`` matrix of per-node trace levels, each the
node's offered load as a fraction of one nominal board's maximum.

Balancing here is *open loop*: policies see only the offered load and
the (static) capacities, never runtime feedback, so the split is a pure
function of ``(trace, capacities)`` and every node run stays an
independent, cacheable :class:`~repro.scenarios.spec.ScenarioSpec`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: A node's queue replica tolerates short overload; levels are capped at
#: the trace layer's validity bound.
MAX_NODE_LEVEL = 1.5


class LoadBalancer(abc.ABC):
    """Split fleet offered load into per-node trace levels."""

    #: Registry key, set on each concrete policy.
    name: str = ""

    @abc.abstractmethod
    def split(self, fleet_loads: np.ndarray, capacities: np.ndarray) -> np.ndarray:
        """Per-node levels for each interval.

        Parameters
        ----------
        fleet_loads:
            Shape ``(n_intervals,)``; offered load as a fraction of the
            nominal fleet capacity (``n_nodes`` ideal boards).
        capacities:
            Shape ``(n_nodes,)``; per-node capacity factors around 1.0.

        Returns
        -------
        Shape ``(n_intervals, n_nodes)``; per-node load levels in
        ``[0, MAX_NODE_LEVEL]``.
        """

    def _clip(self, levels: np.ndarray) -> np.ndarray:
        """Cap at :data:`MAX_NODE_LEVEL` without losing offered load.

        A policy's raw split can push a node past the cap (e.g. a
        capacity-weighted split of a 1.5 fleet load); the excess is
        reassigned to nodes with headroom, proportional to that
        headroom, so the conservation invariant (node levels sum to the
        fleet's offered load) survives whenever it is feasible at all --
        and it always is, because fleet traces are bounded by the same
        1.5 that bounds each node.

        Each redistribution pass touches only the *rows (intervals) that
        still overflow*: most intervals of a realistic trace never hit
        the cap, and the pre-vectorization implementation re-ran the
        full ``(n_intervals, n_nodes)`` arithmetic up to ``n_nodes``
        times anyway.  Row subsetting is observationally invisible --
        per-row arithmetic is elementwise, so operating on the
        overflowing subset produces bit-identical levels (enforced
        against the full-matrix reference by the balancer tests).
        """
        levels = np.clip(levels, 0.0, None)
        for _ in range(levels.shape[1]):
            # A pass fires on the reference's global trigger (any row's
            # summed excess beyond the noise floor) and then applies the
            # reference arithmetic to every row with *any* excess; rows
            # with zero excess are provably unmoved by a reference pass
            # (``x - 0.0 + headroom * 0.0 == x`` for the non-negative
            # post-clip levels), so skipping them is exact.
            active = np.flatnonzero((levels > MAX_NODE_LEVEL).any(axis=1))
            if not len(active):
                break
            sub = levels[active]
            excess = sub - MAX_NODE_LEVEL
            np.clip(excess, 0.0, None, out=excess)
            overflow = excess.sum(axis=1)
            if not (overflow > 1e-12).any():
                break
            sub = sub - excess
            headroom = MAX_NODE_LEVEL - sub
            total_headroom = headroom.sum(axis=1)
            share = np.divide(
                overflow,
                total_headroom,
                out=np.zeros_like(overflow),
                where=total_headroom > 0,
            )
            levels[active] = sub + headroom * np.minimum(share, 1.0)[:, None]
        return np.clip(levels, 0.0, MAX_NODE_LEVEL)


@dataclass(frozen=True)
class RoundRobinBalancer(LoadBalancer):
    """Deal requests evenly, ignoring node heterogeneity.

    The classic DNS/round-robin front end: every node receives the same
    request rate, so slower-than-nominal nodes run proportionally hotter
    and become the fleet's tail under high load.
    """

    name = "round-robin"

    def split(self, fleet_loads: np.ndarray, capacities: np.ndarray) -> np.ndarray:
        fleet_loads = np.asarray(fleet_loads, dtype=float)
        # An even deal of F * n_nodes nominal units is level F everywhere.
        return self._clip(np.tile(fleet_loads[:, None], (1, len(capacities))))


@dataclass(frozen=True)
class LeastLoadedBalancer(LoadBalancer):
    """Send work where the queues are shortest.

    In steady state, join-the-least-loaded equalizes *utilization*, which
    for open-loop dispatch means weighting nodes by capacity: every node
    runs at the same fraction of its own maximum, so heterogeneity stops
    driving tail skew.
    """

    name = "least-loaded"

    def split(self, fleet_loads: np.ndarray, capacities: np.ndarray) -> np.ndarray:
        fleet_loads = np.asarray(fleet_loads, dtype=float)
        capacities = np.asarray(capacities, dtype=float)
        total = fleet_loads * len(capacities)
        weights = capacities / capacities.sum()
        return self._clip(total[:, None] * weights[None, :])


@dataclass(frozen=True)
class PowerAwareBalancer(LoadBalancer):
    """Consolidate load onto the most capable nodes first.

    Water-filling: nodes are ranked by capacity (on identical boards the
    fastest node retires the most work per joule) and filled up to
    ``target_level`` of their own capacity before the next node receives
    anything.  At low fleet load most nodes idle near zero, letting their
    per-node managers park on small cores -- the cluster-level analogue
    of Hipster's own consolidation story.  Load beyond every node's
    target spills proportionally to capacity.
    """

    target_level: float = 0.85
    name = "power-aware"

    def __post_init__(self) -> None:
        if not 0.0 < self.target_level <= MAX_NODE_LEVEL:
            raise ValueError("target_level must be in (0, MAX_NODE_LEVEL]")

    def split(self, fleet_loads: np.ndarray, capacities: np.ndarray) -> np.ndarray:
        fleet_loads = np.asarray(fleet_loads, dtype=float)
        capacities = np.asarray(capacities, dtype=float)
        total = fleet_loads[:, None] * len(capacities)

        # Fill order: most capable node first; stable for equal capacities.
        order = np.argsort(-capacities, kind="stable")
        caps = self.target_level * capacities[order]
        filled_before = np.concatenate(([0.0], np.cumsum(caps)[:-1]))
        alloc = np.clip(total - filled_before[None, :], 0.0, caps[None, :])

        # Spill beyond the last node's target: spread by capacity.
        overflow = np.clip(total[:, 0] - caps.sum(), 0.0, None)
        weights = capacities[order] / capacities.sum()
        alloc = alloc + overflow[:, None] * weights[None, :]

        levels = np.empty_like(alloc)
        levels[:, order] = alloc
        return self._clip(levels)


BALANCER_FACTORIES: dict[str, Callable[..., LoadBalancer]] = {
    "round-robin": RoundRobinBalancer,
    "least-loaded": LeastLoadedBalancer,
    "power-aware": PowerAwareBalancer,
}


def build_balancer(name: str, params=()) -> LoadBalancer:
    """A fresh balancer by registry key, with keyword overrides."""
    try:
        factory = BALANCER_FACTORIES[name]
    except KeyError:
        from repro.errors import UnknownNameError

        raise UnknownNameError(
            "balancer", name, sorted(BALANCER_FACTORIES)
        ) from None
    return factory(**dict(params))
