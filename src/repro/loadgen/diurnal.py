"""Diurnal load pattern (Figure 1 of the paper).

Production services see large diurnal swings: the paper's load generator
(Faban, adapted from CloudSuite) models a 36-hour diurnal pattern
compressed so that one hour becomes one minute.  Figure 1 shows Web-Search
load moving between roughly 5% and 95% of maximum capacity with two broad
daytime peaks.  :class:`DiurnalTrace` synthesizes that shape -- a mixture
of Gaussian bumps over the compressed day -- plus smooth AR(1) noise so
consecutive intervals are correlated the way real traffic is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.loadgen.traces import LoadTrace

#: (center, width, height) of the Gaussian bumps composing the base shape,
#: on normalized time [0, 1].  Two major peaks plus a morning shoulder.
_SHAPE_BUMPS = (
    (0.02, 0.05, 0.45),
    (0.22, 0.06, 0.35),
    (0.40, 0.10, 0.85),
    (0.62, 0.07, 0.55),
    (0.83, 0.07, 0.95),
)

_SHAPE_FLOOR = 0.04


def diurnal_shape(x: np.ndarray) -> np.ndarray:
    """The noiseless diurnal profile on normalized time ``x`` in [0, 1]."""
    x = np.asarray(x, dtype=float)
    raw = np.full_like(x, _SHAPE_FLOOR)
    for center, width, height in _SHAPE_BUMPS:
        raw = raw + height * np.exp(-0.5 * ((x - center) / width) ** 2)
    return np.clip(raw, 0.0, 1.0)


@dataclass(frozen=True)
class DiurnalTrace(LoadTrace):
    """A compressed diurnal day: Figure 1's load pattern.

    Parameters
    ----------
    duration_s:
        Length of the compressed day.  The paper's Memcached experiments
        span ~1400 s and Web-Search ~1000 s.
    min_load, max_load:
        The load range the shape is rescaled into.
    noise_std:
        Standard deviation of the AR(1) noise (fraction of max load).
    noise_rho:
        AR(1) correlation between consecutive seconds.
    seed:
        Noise seed; the same seed always yields the same trace.
    """

    duration_s: float = 1400.0
    min_load: float = 0.05
    max_load: float = 0.95
    noise_std: float = 0.015
    noise_rho: float = 0.8
    seed: int = 42
    _samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0.0 <= self.min_load < self.max_load <= 1.0:
            raise ValueError("need 0 <= min_load < max_load <= 1")
        if self.noise_std < 0 or not 0.0 <= self.noise_rho < 1.0:
            raise ValueError("invalid noise parameters")
        n = int(np.ceil(self.duration_s)) + 1
        x = np.arange(n) / max(self.duration_s, 1.0)
        base = diurnal_shape(x)
        scaled = self.min_load + (self.max_load - self.min_load) * base
        rng = np.random.default_rng(self.seed)
        innovation_std = self.noise_std * np.sqrt(1.0 - self.noise_rho**2)
        # One bulk draw takes the same normals, in the same order, as a
        # scalar draw per second; the AR(1) recursion stays sequential.
        level = rng.normal(0.0, self.noise_std)
        noise = [level]
        rho = self.noise_rho
        for innovation in rng.normal(0.0, innovation_std, size=n - 1).tolist():
            level = rho * level + innovation
            noise.append(level)
        samples = np.clip(scaled + np.array(noise), 0.0, 1.0)
        object.__setattr__(self, "_samples", samples)

    def load_at(self, t: float) -> float:
        """Offered load fraction at time ``t``, linearly interpolated."""
        t = self._check(t)
        return float(np.interp(t, np.arange(len(self._samples)), self._samples))

    def load_at_many(self, times) -> np.ndarray:
        t = self._check_many(times)
        return np.interp(t, np.arange(len(self._samples)), self._samples)
