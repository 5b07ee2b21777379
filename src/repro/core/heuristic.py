"""Hipster's heuristic mapper (the learning-phase controller, Section 3.3).

Structurally this is the same danger/safe feedback automaton as
Octopus-Man (:class:`repro.policies.octopusman.LadderStateMachine`), but
its ladder spans the full heterogeneous configuration space -- mixes of
big and small cores across DVFS points -- ordered by the microbenchmark
characterization.  The paper keeps the heuristic deliberately simple: its
job is not to be optimal but to steer the system through *viable*
configurations so the lookup table fills with reasonable values quickly.
"""

from __future__ import annotations

from repro.hardware.soc import Platform
from repro.hardware.topology import Configuration, pareto_configurations
from repro.policies.base import Decision, TaskManager, resolve_decision
from repro.policies.octopusman import (
    DEFAULT_QOS_DANGER,
    DEFAULT_QOS_SAFE,
    LadderStateMachine,
)


def pareto_ladder(
    platform: Platform, *, max_total_cores: int | None = 4
) -> tuple[Configuration, ...]:
    """A ladder from first principles: the measured Pareto frontier.

    The capacity/power Pareto frontier of the configuration space yields a
    Figure 2c-like ladder where every upward transition buys capacity at a
    power cost.  Note its known blind spot (the very reason the paper
    pairs the heuristic with learning): aggregate-throughput ordering
    never includes big-cores-only states at high DVFS, which
    latency-sensitive, single-thread-bound workloads need at peak load.
    """
    from repro.hardware.topology import enumerate_configurations

    configs = enumerate_configurations(platform, max_total_cores=max_total_cores)
    return pareto_configurations(platform, configs)


def hipster_ladder(
    platform: Platform, *, max_total_cores: int | None = 4
) -> tuple[Configuration, ...]:
    """The heuristic mapper's ladder (paper Section 3.3 / Figure 2c).

    On platforms where the paper's published 13-state Juno ladder is
    expressible (the default Juno R1 model), use it verbatim -- it is the
    paper's own artifact, ordered "approximately from highest to lowest
    power efficiency" and topped by the maximum single-thread-performance
    state ``2B-1.15``.  On other platforms fall back to the measured
    Pareto frontier (:func:`pareto_ladder`).
    """
    from repro.hardware.topology import (
        PAPER_FIG2C_LADDER,
        enumerate_configurations,
    )

    configs = enumerate_configurations(platform, max_total_cores=max_total_cores)
    # One pass over the labels (the first configuration of each label
    # wins, as with config_by_label) instead of a scan per ladder rung.
    by_label: dict[str, Configuration] = {}
    for config in configs:
        by_label.setdefault(config.label, config)
    try:
        return tuple(by_label[label] for label in PAPER_FIG2C_LADDER)
    except KeyError:
        return pareto_ladder(platform, max_total_cores=max_total_cores)


def build_heuristic_mapper(
    platform: Platform,
    *,
    qos_danger: float = DEFAULT_QOS_DANGER,
    qos_safe: float = DEFAULT_QOS_SAFE,
    max_total_cores: int | None = 4,
) -> LadderStateMachine:
    """A ready-to-use heuristic mapper for a platform."""
    return LadderStateMachine(
        ladder=hipster_ladder(platform, max_total_cores=max_total_cores),
        qos_danger=qos_danger,
        qos_safe=qos_safe,
    )


class HipsterHeuristicPolicy(TaskManager):
    """Hipster's heuristic mapper running *alone* (Section 4.2.1).

    The paper evaluates the learning-phase heuristic as a standalone
    policy (Figure 5, right column): it explores the full heterogeneous
    ladder -- unlike Octopus-Man -- but still oscillates and violates QoS,
    which is precisely why Hipster layers reinforcement learning on top.
    """

    def __init__(
        self,
        *,
        qos_danger: float = DEFAULT_QOS_DANGER,
        qos_safe: float | None = None,
        collocate_batch: bool = False,
        max_total_cores: int | None = 4,
    ):
        super().__init__()
        self.name = "hipster-heuristic"
        self._qos_danger = qos_danger
        self._qos_safe = qos_safe
        self._collocate = collocate_batch
        self._max_total_cores = max_total_cores
        self._machine: LadderStateMachine | None = None

    def start(self, ctx) -> None:
        super().start(ctx)
        from repro.policies.octopusman import default_qos_safe

        self._machine = build_heuristic_mapper(
            ctx.platform,
            qos_danger=self._qos_danger,
            qos_safe=self._qos_safe or default_qos_safe(ctx.workload.name),
            max_total_cores=self._max_total_cores,
        )

    def decide(self) -> Decision:
        assert self._machine is not None
        return resolve_decision(
            self.ctx.platform, self._machine.current, collocate_batch=self._collocate
        )

    def observe(self, observation) -> None:
        assert self._machine is not None
        self._machine.step(
            observation.tail_latency_ms, self.ctx.workload.target_latency_ms
        )

    def stable_horizon(self, offered_loads) -> int:
        # Tail-latency feedback: future decisions are unprovable from the
        # trace, so the policy stays on the scalar path (explicit pin).
        return 1
