"""Detection/recovery timelines and the blast-radius report.

Every faulted fleet splits its load here.  Real failure detectors
lag: between onset and detection the balancer keeps routing to a dead
or degraded node, and the surviving nodes only absorb the spill once
the detector fires.  This module models that lag with **two**
capacity-multiplier matrices:

* *physical* -- what the hardware actually does; a fault applies from
  its ``start_interval``.
* *known* -- what the balancer believes; a fault only applies from its
  ``detect_interval`` (repair is assumed observed immediately, so
  known-dead is always a subset of physically-dead).

A fault detected instantly (no ``detection_s``) is the case where the
two matrices agree: the balancer re-splits the moment capacity changes.

:func:`split_with_timeline` segments the run wherever either matrix
changes, re-runs the fleet's balancer per segment over the *known*
capacities, then spills the share routed to undetected-dead nodes
uniformly across the physically-alive ones (the load balancer's
connection failover, which is capacity-blind).  The result is ordinary
per-node ``SampledTrace`` levels -- pre-fault / undetected-overload /
post-redistribution / post-repair are just consecutive segments -- so
node specs stay frozen, cacheable, and byte-identical serial or
``--jobs N``.

:class:`ResilienceReport` condenses a faulted fleet's outcome into
the numbers an operator asks after a drill: how deep QoS dipped during
the failure windows, how long recovery took, how far the blast spread
beyond the nodes that actually failed, and how hot the survivors ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.fleet.balancer import MAX_NODE_LEVEL
from repro.fleet.faults import FaultEvent


def timeline_multipliers(
    events: tuple[FaultEvent, ...], *, n_nodes: int, n_intervals: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(physical, known)`` capacity-multiplier matrices.

    Both are ``(n_intervals, n_nodes)``.  ``physical`` applies each
    event over ``[start_interval, end_interval)``; ``known`` over
    ``[detected_at, end_interval)`` -- the detector lag is the gap.
    """
    physical = np.ones((n_intervals, n_nodes))
    known = np.ones((n_intervals, n_nodes))
    for event in events:
        physical[event.start_interval : event.end_interval, event.node] *= (
            event.multiplier
        )
        known[event.detected_at : event.end_interval, event.node] *= event.multiplier
    return physical, known


def split_with_timeline(
    fleet_loads: np.ndarray,
    capacities: np.ndarray,
    balancer: Any,
    events: tuple[FaultEvent, ...],
) -> np.ndarray:
    """Per-node offered-load levels under the detection/recovery timeline.

    Segments the run at every interval where the physical or known
    multiplier pattern changes, and per segment:

    1. re-runs ``balancer.split`` over the *known*-alive nodes with
       their known effective capacities (detected degradation shrinks a
       node's share; detected death removes it),
    2. spills the share assigned to undetected-dead nodes uniformly
       across the physically-alive ones (capacity-blind failover),
    3. inflates what lands on physically-degraded nodes by the inverse
       multiplier (their service times stretch), capped at
       :data:`MAX_NODE_LEVEL`.

    Raises ``ValueError`` if any segment leaves no node physically
    alive.
    """
    n_intervals, n_nodes = (len(fleet_loads), len(capacities))
    physical, known = timeline_multipliers(
        events, n_nodes=n_nodes, n_intervals=n_intervals
    )
    levels = np.zeros((n_intervals, n_nodes))
    pattern = np.concatenate([physical, known], axis=1)
    # Segment boundaries: intervals where any multiplier flips.
    changes = np.flatnonzero(np.diff(pattern, axis=0).any(axis=1)) + 1
    starts = np.concatenate(([0], changes))
    ends = np.concatenate((changes, [n_intervals]))
    for seg_start, seg_end in zip(starts, ends):
        prow = physical[seg_start]
        krow = known[seg_start]
        phys_alive = np.flatnonzero(prow > 0)
        if phys_alive.size == 0:
            raise ValueError(
                f"fault schedule kills every node (intervals "
                f"{seg_start}-{seg_end}) -- lower the probability or add nodes"
            )
        known_alive = np.flatnonzero(krow > 0)
        # The balancer plans over what it *believes*: the known-alive
        # nodes at their known effective capacities, splitting the
        # whole fleet demand among them.
        sub = fleet_loads[seg_start:seg_end] * n_nodes / known_alive.size
        effective = capacities[known_alive] * krow[known_alive]
        split = balancer.split(sub, effective)
        assigned = np.zeros((seg_end - seg_start, n_nodes))
        assigned[:, known_alive] = split
        # Undetected-dead nodes (balancer still routes to them, but the
        # hardware is gone): spill their share uniformly across the
        # physically-alive nodes.
        ghosts = np.flatnonzero((krow > 0) & (prow == 0))
        if ghosts.size:
            spill = assigned[:, ghosts].sum(axis=1) / phys_alive.size
            assigned[:, phys_alive] += spill[:, None]
            assigned[:, ghosts] = 0.0
        # What a degraded node receives inflates by 1/multiplier.
        inflated = assigned[:, phys_alive] / prow[phys_alive]
        levels[seg_start:seg_end, phys_alive] = np.minimum(inflated, MAX_NODE_LEVEL)
    return levels


@dataclass(frozen=True)
class ResilienceReport:
    """The blast-radius digest of a faulted fleet run.

    ``blast_radius`` is nodes whose planned load changed divided by
    nodes that actually faulted -- 1.0 means the damage stayed put,
    ``n_nodes / nodes_faulted`` means everyone felt it.  QoS fractions
    are the share of intervals meeting the fleet latency target
    (``fleet_ratio <= 1``) inside vs. outside the fault windows;
    ``degradation_depth`` is their gap.  ``time_to_recover_s`` measures,
    per fault event, onset to the first subsequent interval back under
    target (censored at end-of-run -- ``recoveries_censored`` counts
    those).  ``overload_peak_level`` is the hottest *planned* per-node
    level during any window; ``peak_tail_ratio`` the hottest *measured*
    node tail-latency ratio (``None`` when node peaks were not
    collected).
    """

    n_events: int
    nodes_faulted: int
    nodes_affected: int
    blast_radius: float
    fault_intervals: int
    qos_baseline: float
    qos_during_faults: float
    degradation_depth: float
    time_to_recover_s_mean: float
    time_to_recover_s_max: float
    recoveries_censored: int
    overload_peak_level: float
    peak_tail_ratio: float | None = None

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready mapping (rounded the way summaries are)."""
        return {
            "n_events": self.n_events,
            "nodes_faulted": self.nodes_faulted,
            "nodes_affected": self.nodes_affected,
            "blast_radius": round(self.blast_radius, 6),
            "fault_intervals": self.fault_intervals,
            "qos_baseline": round(self.qos_baseline, 6),
            "qos_during_faults": round(self.qos_during_faults, 6),
            "degradation_depth": round(self.degradation_depth, 6),
            "time_to_recover_s_mean": round(self.time_to_recover_s_mean, 3),
            "time_to_recover_s_max": round(self.time_to_recover_s_max, 3),
            "recoveries_censored": self.recoveries_censored,
            "overload_peak_level": round(self.overload_peak_level, 6),
            "peak_tail_ratio": (
                None
                if self.peak_tail_ratio is None
                else round(self.peak_tail_ratio, 6)
            ),
        }

    def render_lines(self) -> list[str]:
        """Human-readable report lines for fleet/pack renders."""
        lines = [
            (
                f"resilience: {self.n_events} event(s) on "
                f"{self.nodes_faulted} node(s), blast radius "
                f"{self.blast_radius:.2f} ({self.nodes_affected} affected)"
            ),
            (
                f"  QoS {self.qos_baseline * 100:.1f}% baseline -> "
                f"{self.qos_during_faults * 100:.1f}% during faults "
                f"(depth {self.degradation_depth * 100:.1f}pp over "
                f"{self.fault_intervals} interval(s))"
            ),
            (
                f"  recovery {self.time_to_recover_s_mean:.1f}s mean / "
                f"{self.time_to_recover_s_max:.1f}s max"
                + (
                    f" ({self.recoveries_censored} censored)"
                    if self.recoveries_censored
                    else ""
                )
            ),
        ]
        survivor = f"  survivor overload peak {self.overload_peak_level:.3f}x"
        if self.peak_tail_ratio is not None:
            survivor += f", peak tail ratio {self.peak_tail_ratio:.3f}x"
        lines.append(survivor)
        return lines


def build_resilience_report(
    *,
    events: tuple[FaultEvent, ...],
    planned_levels: np.ndarray,
    baseline_levels: np.ndarray,
    fleet_ratio: np.ndarray | None,
    interval_s: float,
    node_peak_ratios: np.ndarray | None = None,
) -> ResilienceReport:
    """Condense a faulted fleet's plan + measurements into a report.

    ``planned_levels`` are the timeline split's per-node levels,
    ``baseline_levels`` the counterfactual faultless split of the same
    demand; a node whose rounded plan differs anywhere is "affected".
    ``fleet_ratio`` (per-interval max tail/target across nodes) drives
    the QoS and recovery numbers; when unavailable the report still
    carries the structural fields.
    """
    n_intervals, n_nodes = planned_levels.shape
    faulted = sorted({event.node for event in events})
    affected_mask = ~np.all(
        np.round(planned_levels, 6) == np.round(baseline_levels, 6), axis=0
    )
    nodes_affected = int(affected_mask.sum())
    physical, _ = timeline_multipliers(events, n_nodes=n_nodes, n_intervals=n_intervals)
    # Every event multiplier is below 1, so an interval lies in a fault
    # window exactly when some node runs below full capacity.
    window = (physical < 1.0).any(axis=1)
    fault_intervals = int(window.sum())
    alive_levels = np.where(physical > 0.0, planned_levels, 0.0)
    overload_peak = (
        float(alive_levels[window].max())
        if fault_intervals
        else float(alive_levels.max(initial=0.0))
    )
    qos_baseline = qos_during = 1.0
    ttrs: list[float] = []
    censored = 0
    if fleet_ratio is not None and len(fleet_ratio) == n_intervals:
        ok = np.asarray(fleet_ratio) <= 1.0
        outside = ~window
        if outside.any():
            qos_baseline = float(ok[outside].mean())
        # No fault windows (the clauses lowered to no events): the
        # during-faults QoS degenerates to the baseline, depth 0.
        qos_during = float(ok[window].mean()) if window.any() else qos_baseline
        for event in events:
            start = event.start_interval
            if start >= n_intervals:
                continue
            recovered = np.flatnonzero(ok[start:])
            if recovered.size:
                ttrs.append(float(recovered[0]) * interval_s)
            else:
                ttrs.append(float(n_intervals - start) * interval_s)
                censored += 1
    return ResilienceReport(
        n_events=len(events),
        nodes_faulted=len(faulted),
        nodes_affected=nodes_affected,
        blast_radius=(nodes_affected / len(faulted)) if faulted else 0.0,
        fault_intervals=fault_intervals,
        qos_baseline=qos_baseline,
        qos_during_faults=qos_during,
        degradation_depth=max(0.0, qos_baseline - qos_during),
        time_to_recover_s_mean=(sum(ttrs) / len(ttrs)) if ttrs else 0.0,
        time_to_recover_s_max=max(ttrs) if ttrs else 0.0,
        recoveries_censored=censored,
        overload_peak_level=overload_peak,
        peak_tail_ratio=(
            float(np.max(node_peak_ratios))
            if node_peak_ratios is not None and len(node_peak_ratios)
            else None
        ),
    )


__all__ = [
    "ResilienceReport",
    "build_resilience_report",
    "split_with_timeline",
    "timeline_multipliers",
]
