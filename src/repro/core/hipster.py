"""Hipster: the hybrid reinforcement-learning task manager (Sections 3.2-3.5).

Hipster runs in two phases.  During the **learning phase** the heuristic
mapper (a danger/safe feedback automaton over the characterized ladder)
drives the system through viable configurations while every interval's
outcome updates the lookup table.  After a prefixed time quantum it enters
the **exploitation phase** (Algorithm 2): each interval it applies
``argmax_c R(w, c)`` for the current load bucket ``w``, keeps updating the
table, and falls back into the learning phase whenever the rolling QoS
guarantee drops to the threshold ``X`` (line 18) -- e.g. after a change in
the batch mix or any other drift.

Two variants share all of this and differ only in the objective term of
the reward and in what the leftover cores do:

* :data:`Variant.INTERACTIVE` (HipsterIn) -- leftover cluster parked at
  minimum DVFS; reward includes ``TDP / Power``.
* :data:`Variant.COLLOCATED` (HipsterCo) -- leftover cores run batch jobs,
  a batch-only cluster races to maximum DVFS; reward includes the
  normalized batch IPS.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.buckets import DEFAULT_BUCKET_SIZE, LoadBucketizer
from repro.core.heuristic import build_heuristic_mapper
from repro.core.rewards import reward_terms
from repro.core.table import DEFAULT_ALPHA, DEFAULT_GAMMA, LookupTable
from repro.hardware.topology import (
    Configuration,
    config_capacity_ips,
    enumerate_configurations,
)
from repro.policies.base import Decision, TaskManager, resolve_decision
from repro.policies.octopusman import DEFAULT_QOS_DANGER

if TYPE_CHECKING:  # pragma: no cover - break the sim <-> core import cycle
    from repro.sim.records import IntervalObservation


class Variant(str, enum.Enum):
    """Which Hipster variant to run."""

    INTERACTIVE = "in"
    COLLOCATED = "co"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Phase(str, enum.Enum):
    """Hipster's runtime phase."""

    LEARNING = "learning"
    EXPLOITATION = "exploitation"


@dataclass(frozen=True)
class HipsterParams:
    """Tunables, with the paper's defaults (Sections 3.4 and 4.1)."""

    learning_duration_s: float = 500.0
    bucket_size: float | None = None  # None: the paper's per-workload default
    alpha: float = DEFAULT_ALPHA
    gamma: float = DEFAULT_GAMMA
    qos_danger: float = DEFAULT_QOS_DANGER
    #: None: resolved per workload at start() via the swept defaults.
    qos_safe: float | None = None
    reenter_threshold: float = 0.85  # Algorithm 2's X
    reenter_window_s: float = 100.0
    max_total_cores: int | None = 4
    #: Guided exploration during exploitation: with probability epsilon,
    #: try a configuration whose microbenchmark capacity lies within
    #: ``exploration_band`` of the incumbent's (never something obviously
    #: undersized).  The paper relies on its stochastic reward for
    #: residual exploration; on the noisier simulated substrate a small
    #: explicit rate is needed for the lookup table to discover
    #: lower-power configurations after the learning phase (the
    #: exploration ablation bench quantifies both settings).
    epsilon: float = 0.04
    exploration_band: tuple[float, float] = (0.70, 1.35)
    #: Safe threshold used *during the learning phase only*.  A higher
    #: value makes the heuristic descend (and bounce) more aggressively,
    #: which spreads lookup-table visits over adjacent ladder states --
    #: the exploration the paper gets from its oscillating heuristic
    #: (Figure 5c).  QoS during learning suffers slightly; exploitation
    #: gains fresher values to compare.
    learning_qos_safe: float = 0.30
    #: Exploitation keeps the incumbent configuration unless the argmax
    #: beats it by this margin.  Damps near-tie flapping (each flap is a
    #: costly migration, Section 3.6); see the switch-margin ablation
    #: bench for the sensitivity.
    switch_margin: float = 0.75
    #: Learning-rate schedule for the lookup table: "fixed" is the
    #: paper's constant alpha; "decay" (default) uses a per-entry
    #: stochastic-approximation schedule that removes the recency bias a
    #: constant alpha suffers while the value scale is still growing --
    #: necessary on the simulated platform, whose per-interval tail
    #: estimates are noisier than the real hardware's (fewer requests per
    #: interval in the time-dilated replica).  The alpha-schedule
    #: ablation bench quantifies the difference.
    alpha_schedule: str = "decay"

    def __post_init__(self) -> None:
        if self.learning_duration_s < 0:
            raise ValueError("learning_duration_s must be non-negative")
        if not 0.0 <= self.reenter_threshold <= 1.0:
            raise ValueError("reenter_threshold must be within [0, 1]")
        if self.reenter_window_s <= 0:
            raise ValueError("reenter_window_s must be positive")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must be within [0, 1)")


class Hipster(TaskManager):
    """The hybrid heuristic + Q-learning task manager."""

    def __init__(
        self,
        variant: Variant | str = Variant.INTERACTIVE,
        params: HipsterParams | None = None,
    ):
        super().__init__()
        self.variant = Variant(variant)
        self.params = params or HipsterParams()
        self.name = f"hipster-{self.variant.value}"
        self._phase = Phase.LEARNING
        self._phase_elapsed_s = 0.0
        self._configs: tuple[Configuration, ...] = ()
        self._ladder_actions: tuple[int, ...] = ()
        self._decisions: tuple[Decision, ...] = ()
        self._table: LookupTable | None = None
        self._machine = None
        self._bucketizer: LoadBucketizer | None = None
        self._tie_order: tuple[int, ...] = ()
        self._current_bucket = 0
        self._pending: tuple[int, int] | None = None
        self._last_action: int | None = None
        self._qos_window: deque[bool] = deque()
        self._qos_met_in_window = 0
        self._phase_switches = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, ctx) -> None:
        super().start(ctx)
        platform = ctx.platform
        self._configs = enumerate_configurations(
            platform, max_total_cores=self.params.max_total_cores
        )
        action_of = {config: i for i, config in enumerate(self._configs)}
        # Run constants, resolved once: each action's decision (the
        # collocate flag cannot change mid-run) and the reward's
        # platform normalizers.
        collocate = self.variant is Variant.COLLOCATED and ctx.batch_present
        self._collocate = collocate
        self._decisions = tuple(
            resolve_decision(platform, config, collocate_batch=collocate)
            for config in self._configs
        )
        self._target_ms = ctx.workload.target_latency_ms
        self._tdp_w = platform.tdp_w
        self._max_ips_big = platform.big.max_microbench_ips()
        self._max_ips_small = platform.small.max_microbench_ips()
        self._table = LookupTable(
            n_actions=len(self._configs),
            alpha=self.params.alpha,
            gamma=self.params.gamma,
            alpha_schedule=self.params.alpha_schedule,
        )
        from repro.policies.octopusman import default_qos_safe

        resolved_safe = self.params.qos_safe or default_qos_safe(ctx.workload.name)
        self._machine = build_heuristic_mapper(
            platform,
            qos_danger=self.params.qos_danger,
            qos_safe=max(resolved_safe, self.params.learning_qos_safe),
            max_total_cores=self.params.max_total_cores,
        )
        # The action of each ladder rung, so the learning phase maps the
        # heuristic's position to an action without hashing a config.
        self._ladder_actions = tuple(
            action_of[config] for config in self._machine.ladder
        )
        bucket_size = self.params.bucket_size or DEFAULT_BUCKET_SIZE.get(
            ctx.workload.name, 0.05
        )
        self._bucketizer = LoadBucketizer(bucket_size)
        # Equal Q-values resolve toward the most capable configuration:
        # in a barely-known state the QoS-safe guess is more capacity.
        self._capacity = {
            i: config_capacity_ips(platform, c) for i, c in enumerate(self._configs)
        }
        self._tie_order = tuple(
            sorted(range(len(self._configs)), key=lambda i: -self._capacity[i])
        )
        window = max(int(self.params.reenter_window_s / ctx.interval_s), 1)
        self._qos_window = deque(maxlen=window)
        self._qos_met_in_window = 0

    # ------------------------------------------------------------------
    # introspection (reports/tests)
    # ------------------------------------------------------------------

    @property
    def phase(self) -> Phase:
        """Current runtime phase."""
        return self._phase

    @property
    def phase_switches(self) -> int:
        """How many times the phase changed during the run."""
        return self._phase_switches

    def scenario_stats(self) -> dict[str, float | int]:
        """Instance state the figures need back from scenario workers."""
        return {"phase_switches": self._phase_switches}

    @property
    def table(self) -> LookupTable:
        """The lookup table (available after :meth:`start`)."""
        if self._table is None:
            raise RuntimeError("manager not started")
        return self._table

    @property
    def configurations(self) -> tuple[Configuration, ...]:
        """The action space (available after :meth:`start`)."""
        return self._configs

    # ------------------------------------------------------------------
    # Algorithm 2
    # ------------------------------------------------------------------

    def decide(self) -> Decision:
        action = self._choose()
        self._pending = (self._current_bucket, action)
        self._last_action = action
        return self._decisions[action]

    def stable_horizon(self, offered_loads) -> int:
        # The learner consumes rewards (and rng during exploration) every
        # interval; no epoch is provable, so the scalar path stays in
        # charge (explicit pin of the TaskManager default).
        return 1

    def _choose(self) -> int:
        """The action (index into the configuration space) to apply."""
        assert self._table is not None and self._machine is not None
        bucket = self._current_bucket
        if self._phase is Phase.LEARNING or not self._table.state_visited(bucket):
            return self._ladder_actions[self._machine.index]
        if self.params.epsilon > 0 and self.ctx.rng.random() < self.params.epsilon:
            explored = self._explore()
            if explored is not None:
                return explored
        action, best_value = self._table.best_action(bucket, tie_break=self._tie_order)
        incumbent = self._last_action
        if (
            incumbent is not None
            and incumbent != action
            and self._table.visited(bucket, incumbent)
            and self._table.value(bucket, incumbent)
            >= best_value - self.params.switch_margin
        ):
            action = incumbent
        return action

    def _explore(self) -> int | None:
        """Pick a capacity-plausible neighbour of the incumbent, if any."""
        incumbent = self._last_action
        if incumbent is None:
            return None
        lo, hi = self.params.exploration_band
        reference = self._capacity[incumbent]
        candidates = [
            a
            for a in range(len(self._configs))
            if a != incumbent and lo * reference <= self._capacity[a] <= hi * reference
        ]
        if not candidates:
            return None
        # Prefer the least-visited candidate: one fresh update is all a
        # truly better configuration needs to take over the argmax.
        bucket = self._current_bucket
        min_visits = min(self._table.visit_count(bucket, a) for a in candidates)
        least = [
            a for a in candidates if self._table.visit_count(bucket, a) == min_visits
        ]
        return int(least[self.ctx.rng.integers(len(least))])

    def observe(self, observation: "IntervalObservation") -> None:
        assert self._table is not None and self._machine is not None
        target_ms = self._target_ms
        tail_ms = observation.tail_latency_ms
        next_bucket = self._bucketizer.bucket(observation.measured_load)

        reward = reward_terms(
            tail_ms,
            target_ms,
            observation.power_w,
            self._tdp_w,
            self._collocate and observation.decision.run_batch,
            observation.big_ips,
            observation.small_ips,
            self._max_ips_big,
            self._max_ips_small,
            self.ctx.rng,
            self.params.qos_danger,
        )[0]
        if self._pending is not None:
            state, action = self._pending
            self._table.update(state, action, reward, next_bucket)

        if self._phase is Phase.LEARNING:
            self._machine.step(tail_ms, target_ms)
        # The window's QoS-met count is kept running: a full deque drops
        # its oldest entry on append.
        window = self._qos_window
        if len(window) == window.maxlen:
            self._qos_met_in_window -= window[0]
        window.append(observation.qos_met)
        self._qos_met_in_window += observation.qos_met
        self._advance_phase(observation)
        self._current_bucket = next_bucket

    def _advance_phase(self, observation: "IntervalObservation") -> None:
        self._phase_elapsed_s += observation.duration_s
        if self._phase is Phase.LEARNING:
            if self._phase_elapsed_s >= self.params.learning_duration_s:
                self._switch(Phase.EXPLOITATION)
        else:
            window = self._qos_window
            if (
                len(window) == window.maxlen
                and self._qos_met_in_window / len(window)
                <= self.params.reenter_threshold
            ):
                # Algorithm 2, line 18: QoSGuarantee <= X -> learning phase.
                self._machine.seed_from(observation.decision.config)
                self._switch(Phase.LEARNING)

    def _switch(self, phase: Phase) -> None:
        self._phase = phase
        self._phase_elapsed_s = 0.0
        self._qos_window.clear()
        self._qos_met_in_window = 0
        self._phase_switches += 1


def hipster_in(params: HipsterParams | None = None) -> Hipster:
    """HipsterIn: latency-critical workload alone, minimize power."""
    return Hipster(Variant.INTERACTIVE, params)


def hipster_co(params: HipsterParams | None = None) -> Hipster:
    """HipsterCo: collocate batch jobs, maximize their throughput."""
    return Hipster(Variant.COLLOCATED, params)
