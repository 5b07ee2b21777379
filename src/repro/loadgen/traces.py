"""Load traces: offered load as a function of time.

The controllers under study only ever see the offered load of the current
monitoring interval, so a trace is simply a function from time to a load
fraction in ``[0, 1]`` (of the workload's calibrated maximum).  Besides the
diurnal pattern (:mod:`repro.loadgen.diurnal`), the paper's evaluation uses
a linear ramp (Figure 8, 50% to 100% over 175 s) and motivates sudden load
spikes (Section 2, citing "The Tail at Scale"); constant and step traces
round out the toolbox for tests and calibration.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class LoadTrace(abc.ABC):
    """Offered load over time, as a fraction of the workload maximum."""

    #: Total trace duration in seconds.
    duration_s: float

    @abc.abstractmethod
    def load_at(self, t: float) -> float:
        """Offered load fraction at time ``t`` (clamped to the trace)."""

    def load_at_many(self, times: "Sequence[float] | np.ndarray") -> np.ndarray:
        """Vectorized :meth:`load_at` over many query times.

        The engine reads a whole run's interval-midpoint loads through
        this once, up front (the decision-epoch fast path needs the
        lookahead; the scalar path indexes the same array).  The default
        delegates per element, so every float is :meth:`load_at`'s own;
        trace classes overriding it with batched arithmetic must return
        bit-identical values, which ``tests/test_loadgen.py`` pins.
        """
        return np.array([self.load_at(float(t)) for t in times], dtype=float)

    def n_intervals(self, interval_s: float = 1.0) -> int:
        """Number of whole monitoring intervals the trace covers."""
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        return int(self.duration_s / interval_s)

    def interval_loads(self, n: int, interval_s: float = 1.0) -> np.ndarray:
        """The offered load at the midpoint of each of ``n`` monitoring
        intervals: what the engine plays, and what the batch scheduler's
        cost model averages.

        ``i * interval_s + interval_s / 2.0`` per element is bitwise the
        scalar expression (``arange`` holds exact integers), and
        :meth:`load_at_many` is pinned bit-identical to per-call
        :meth:`load_at`.
        """
        mids = np.arange(n, dtype=np.float64) * interval_s + interval_s / 2.0
        return self.load_at_many(mids)

    def _check(self, t: float) -> float:
        if t < 0:
            raise ValueError("time must be non-negative")
        return min(t, self.duration_s)

    def _check_many(self, times: "Sequence[float] | np.ndarray") -> np.ndarray:
        """Vectorized :meth:`_check`: validate then clamp to the trace."""
        times = np.asarray(times, dtype=float)
        if times.size and float(times.min()) < 0:
            raise ValueError("time must be non-negative")
        return np.minimum(times, self.duration_s)


@dataclass(frozen=True)
class ConstantTrace(LoadTrace):
    """A fixed offered load, used for calibration and steady-state sweeps."""

    level: float
    duration_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.5:
            raise ValueError("level must be within [0, 1.5]")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    def load_at(self, t: float) -> float:
        self._check(t)
        return self.level

    def load_at_many(self, times) -> np.ndarray:
        checked = self._check_many(times)
        return np.full(checked.shape, self.level, dtype=float)


@dataclass(frozen=True)
class StepTrace(LoadTrace):
    """Piecewise-constant load: a sequence of ``(duration_s, level)`` steps."""

    steps: tuple[tuple[float, float], ...]
    duration_s: float = 0.0

    def __init__(self, steps: Sequence[tuple[float, float]]):
        if not steps:
            raise ValueError("need at least one step")
        for duration, level in steps:
            if duration <= 0:
                raise ValueError("step durations must be positive")
            if not 0.0 <= level <= 1.5:
                raise ValueError("step levels must be within [0, 1.5]")
        object.__setattr__(self, "steps", tuple((float(d), float(l)) for d, l in steps))
        object.__setattr__(self, "duration_s", float(sum(d for d, _ in steps)))

    def load_at(self, t: float) -> float:
        t = self._check(t)
        elapsed = 0.0
        for duration, level in self.steps:
            elapsed += duration
            if t < elapsed:
                return level
        return self.steps[-1][1]

    def load_at_many(self, times) -> np.ndarray:
        t = self._check_many(times)
        # cumsum accumulates left to right, exactly the scalar loop's
        # ``elapsed`` values; side="right" finds the first bound > t,
        # i.e. the first step whose ``t < elapsed`` test passes.
        bounds = np.cumsum([d for d, _ in self.steps])
        idx = np.minimum(
            np.searchsorted(bounds, t, side="right"), len(self.steps) - 1
        )
        return np.asarray([level for _, level in self.steps], dtype=float)[idx]


@dataclass(frozen=True)
class RampTrace(LoadTrace):
    """Linear ramp from ``start_level`` to ``end_level`` (Figure 8).

    The ramp occupies ``ramp_s`` seconds after ``lead_s`` seconds of the
    start level; any remaining time holds the end level.
    """

    start_level: float
    end_level: float
    ramp_s: float
    lead_s: float = 0.0
    hold_s: float = 0.0
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        for attr in ("start_level", "end_level"):
            if not 0.0 <= getattr(self, attr) <= 1.5:
                raise ValueError(f"{attr} must be within [0, 1.5]")
        if self.ramp_s <= 0:
            raise ValueError("ramp_s must be positive")
        if self.lead_s < 0 or self.hold_s < 0:
            raise ValueError("lead_s and hold_s must be non-negative")
        object.__setattr__(
            self, "duration_s", self.lead_s + self.ramp_s + self.hold_s
        )

    def load_at(self, t: float) -> float:
        t = self._check(t)
        if t < self.lead_s:
            return self.start_level
        if t >= self.lead_s + self.ramp_s:
            return self.end_level
        frac = (t - self.lead_s) / self.ramp_s
        return self.start_level + frac * (self.end_level - self.start_level)


@dataclass(frozen=True)
class ConcatTrace(LoadTrace):
    """Several traces played back to back (e.g. warm-up then a ramp)."""

    parts: tuple[LoadTrace, ...]
    duration_s: float = 0.0

    def __init__(self, parts: Sequence[LoadTrace]):
        if not parts:
            raise ValueError("need at least one part")
        object.__setattr__(self, "parts", tuple(parts))
        object.__setattr__(self, "duration_s", float(sum(p.duration_s for p in parts)))

    def load_at(self, t: float) -> float:
        t = self._check(t)
        for part in self.parts:
            if t < part.duration_s:
                return part.load_at(t)
            t -= part.duration_s
        return self.parts[-1].load_at(self.parts[-1].duration_s)


@dataclass(frozen=True)
class SampledTrace(LoadTrace):
    """Uniformly sampled load levels, one per ``interval_s`` seconds.

    Unlike :class:`StepTrace` (which scans its steps on every lookup),
    lookups here are O(1), so a fleet of nodes can each carry a
    per-interval load schedule hundreds of entries long -- the shape a
    load balancer emits -- without quadratic replay cost.
    """

    levels: tuple[float, ...]
    interval_s: float = 1.0
    duration_s: float = 0.0

    def __init__(self, levels: Sequence[float], interval_s: float = 1.0):
        if not levels:
            raise ValueError("need at least one level")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        for level in levels:
            if not 0.0 <= level <= 1.5:
                raise ValueError("levels must be within [0, 1.5]")
        object.__setattr__(self, "levels", tuple(float(level) for level in levels))
        object.__setattr__(self, "interval_s", float(interval_s))
        object.__setattr__(self, "duration_s", float(len(levels) * interval_s))

    def load_at(self, t: float) -> float:
        t = self._check(t)
        index = min(int(t / self.interval_s), len(self.levels) - 1)
        return self.levels[index]

    def load_at_many(self, times) -> np.ndarray:
        t = self._check_many(times)
        idx = np.minimum(
            (t / self.interval_s).astype(np.int64), len(self.levels) - 1
        )
        return np.asarray(self.levels, dtype=float)[idx]


@dataclass(frozen=True)
class ReplayTrace(LoadTrace):
    """Replay of a recorded load series: explicit ``(time, level)`` points.

    Where :class:`SampledTrace` assumes a uniform sampling grid, a replay
    carries its own (strictly increasing) timestamps -- the shape of a
    production monitoring export, which samples on state changes or at
    irregular scrape intervals.  ``interp`` selects how load between
    points is read: ``"previous"`` holds the last recorded level (a
    step function, the usual semantics of counter scrapes) and
    ``"linear"`` interpolates between points.
    """

    times_s: tuple[float, ...]
    levels: tuple[float, ...]
    interp: str = "previous"
    duration_s: float = 0.0

    def __init__(
        self,
        times_s: Sequence[float],
        levels: Sequence[float],
        interp: str = "previous",
        duration_s: float | None = None,
    ):
        if len(times_s) != len(levels):
            raise ValueError(
                f"times_s and levels must align ({len(times_s)} times, "
                f"{len(levels)} levels)"
            )
        if not times_s:
            raise ValueError("need at least one recorded point")
        times = tuple(float(t) for t in times_s)
        if times[0] < 0:
            raise ValueError("recorded times must be non-negative")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("recorded times must be strictly increasing")
        for level in levels:
            if not 0.0 <= level <= 1.5:
                raise ValueError("levels must be within [0, 1.5]")
        if interp not in ("previous", "linear"):
            raise ValueError(
                f"interp must be 'previous' or 'linear', got {interp!r}"
            )
        if duration_s is None:
            duration_s = times[-1] if times[-1] > 0 else 1.0
        if duration_s < times[-1]:
            raise ValueError("duration_s must cover the recorded points")
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "levels", tuple(float(v) for v in levels))
        object.__setattr__(self, "interp", interp)
        object.__setattr__(self, "duration_s", float(duration_s))

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.times_s, dtype=float),
            np.asarray(self.levels, dtype=float),
        )

    def load_at(self, t: float) -> float:
        t = self._check(t)
        times, levels = self._arrays()
        if self.interp == "linear":
            return float(np.interp(t, times, levels))
        # "previous": the last point at or before t; times before the
        # first recorded point hold the first level.
        index = max(int(np.searchsorted(times, t, side="right")) - 1, 0)
        return float(levels[index])

    def load_at_many(self, times_query) -> np.ndarray:
        t = self._check_many(times_query)
        times, levels = self._arrays()
        if self.interp == "linear":
            return np.interp(t, times, levels)
        idx = np.maximum(np.searchsorted(times, t, side="right") - 1, 0)
        return levels[idx]


@dataclass(frozen=True)
class SpikeTrace(LoadTrace):
    """A sudden load spike on top of a base level (Section 2's 'sudden
    load spikes' stressor)."""

    base_level: float
    spike_level: float
    spike_start_s: float
    spike_duration_s: float
    duration_s: float

    def __post_init__(self) -> None:
        for attr in ("base_level", "spike_level"):
            if not 0.0 <= getattr(self, attr) <= 1.5:
                raise ValueError(f"{attr} must be within [0, 1.5]")
        if self.spike_duration_s <= 0 or self.duration_s <= 0:
            raise ValueError("durations must be positive")
        if not 0.0 <= self.spike_start_s <= self.duration_s:
            raise ValueError("spike_start_s must lie within the trace")

    def load_at(self, t: float) -> float:
        t = self._check(t)
        if self.spike_start_s <= t < self.spike_start_s + self.spike_duration_s:
            return self.spike_level
        return self.base_level
