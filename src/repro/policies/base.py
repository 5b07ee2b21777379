"""Task-manager interface shared by Hipster and every baseline.

A manager sees the system exactly the way the paper's user-space runtime
does: once per monitoring interval it receives an
:class:`~repro.sim.records.IntervalObservation` and, before the next
interval starts, must produce a :class:`Decision` -- the latency-critical
configuration, the operating point of each cluster, and whether batch jobs
run on the leftover cores.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.hardware.soc import Platform
from repro.hardware.topology import Configuration, validate_configuration
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - break the sim <-> policies import cycle
    from repro.sim.records import IntervalObservation
from repro.workloads.base import LatencyCriticalWorkload


@dataclass(frozen=True)
class Decision:
    """What to apply for the upcoming monitoring interval."""

    config: Configuration
    big_freq_ghz: float
    small_freq_ghz: float
    run_batch: bool = False

    def __post_init__(self) -> None:
        if self.config.big_freq_ghz is not None and (
            self.big_freq_ghz != self.config.big_freq_ghz
        ):
            raise ValueError(
                "big cluster hosts latency-critical cores; its frequency is "
                "fixed by the configuration"
            )
        if self.config.small_freq_ghz is not None and (
            self.small_freq_ghz != self.config.small_freq_ghz
        ):
            raise ValueError(
                "small cluster hosts latency-critical cores; its frequency is "
                "fixed by the configuration"
            )


def resolve_decision(
    platform: Platform,
    config: Configuration,
    *,
    collocate_batch: bool,
) -> Decision:
    """Turn a configuration choice into a full decision (Algorithm 2, 8-13).

    Clusters hosting latency-critical cores run at the configuration's
    operating point (one DVFS domain per cluster).  A cluster with no
    latency-critical core is raced to its maximum operating point when
    batch jobs will use it, and parked at its minimum otherwise
    (HipsterIn's "lowest DVFS for the remaining cores").
    """
    validate_configuration(platform, config)
    if config.big_freq_ghz is not None:
        big_freq = config.big_freq_ghz
    else:
        big_freq = (
            platform.big.max_freq_ghz if collocate_batch else platform.big.min_freq_ghz
        )
    if config.small_freq_ghz is not None:
        small_freq = config.small_freq_ghz
    else:
        small_freq = (
            platform.small.max_freq_ghz
            if collocate_batch
            else platform.small.min_freq_ghz
        )
    return Decision(
        config=config,
        big_freq_ghz=big_freq,
        small_freq_ghz=small_freq,
        run_batch=collocate_batch,
    )


@dataclass
class ManagerContext:
    """Everything a manager may legitimately know before the run starts."""

    platform: Platform
    workload: LatencyCriticalWorkload
    interval_s: float
    rng: np.random.Generator
    batch_present: bool = False


class TaskManager(abc.ABC):
    """Interval-granularity controller of core mapping and DVFS."""

    #: Human-readable policy name, used in reports.
    name: str = "manager"

    def __init__(self) -> None:
        self._ctx: ManagerContext | None = None

    @property
    def ctx(self) -> ManagerContext:
        """The run context; available after :meth:`start`."""
        if self._ctx is None:
            raise RuntimeError("manager not started; the engine calls start() first")
        return self._ctx

    def start(self, ctx: ManagerContext) -> None:
        """Bind the manager to a run.  Subclasses extend, not replace."""
        self._ctx = ctx

    @abc.abstractmethod
    def decide(self) -> Decision:
        """Choose the decision for the upcoming interval."""

    def observe(self, observation: "IntervalObservation") -> None:
        """Digest the interval that just finished (optional).

        ``observation`` is the interval's
        :class:`~repro.sim.records.IntervalObservation` row, whose fields
        are plain Python scalars.  On the scalar path it is the very
        object the run's observation table stores; on the epoch path
        it is rebuilt from the table (``table.row(i)``) with equal
        values.  Managers must treat it as read-only.
        """

    # ------------------------------------------------------------------
    # epoch fast-path contract (optional)
    # ------------------------------------------------------------------
    #
    # The engine's decision-epoch fast path evaluates a run of intervals
    # in one vectorized pass *without* calling decide()/observe() at each
    # boundary, replaying observe() once the epoch commits.  A manager
    # opts in by overriding BOTH hooks below; doing so promises that
    #
    # * decide() and observe() are pure and rng-free: decide() depends
    #   only on state that observe() derives from the previous interval's
    #   ``measured_load``, so deferred observe() replay is invisible;
    # * epoch_continue(m) returns True only if, after observing a
    #   measured load of ``m``, the next decide() would return a decision
    #   equal to the one already applied.
    #
    # Feedback-driven policies (Octopus-Man's ladder, Hipster's learner)
    # react to tail latency and must keep the defaults: a horizon of one
    # interval and no continuation, which pins them to the scalar path.

    def stable_horizon(self, offered_loads: "Sequence[float]") -> int:
        """Upper bound on upcoming intervals with a provably equal decision.

        Called right after :meth:`decide`, with the deterministic trace
        lookahead ``offered_loads`` (one offered-load fraction per
        upcoming interval, the current one first).  The returned horizon
        is a *hint* capping the epoch length; the epoch still validates
        every step through :meth:`epoch_continue` before drawing the
        next interval, because decisions may feed on the stochastic
        measured load rather than the offered one.  The default claims
        nothing, keeping the manager on the scalar path.
        """
        return 1

    def epoch_continue(self, measured_load: float) -> bool:
        """Whether the applied decision survives observing ``measured_load``.

        The engine calls this after drawing each epoch interval's
        arrivals (``measured_load`` is a pure function of the drawn
        arrival count) and *before* drawing the next interval, so a
        ``False`` simply ends the epoch with no rollback -- the rng
        stream never runs ahead of a validated decision.
        """
        return False

    def scenario_stats(self) -> dict[str, float | int]:
        """Manager-side statistics a scenario run should report.

        Managers are rebuilt inside batch workers, so any instance state
        an experiment needs (e.g. Hipster's phase switches) must be
        declared here -- the scenario layer ships the returned mapping
        back with the run's :class:`~repro.scenarios.spec.ScenarioOutcome`.
        """
        return {}


@dataclass
class DecisionLog:
    """Small helper recording a manager's decisions, for tests/reports."""

    decisions: list[Decision] = field(default_factory=list)

    def record(self, decision: Decision) -> Decision:
        self.decisions.append(decision)
        return decision

    @property
    def config_labels(self) -> list[str]:
        return [d.config.label for d in self.decisions]
