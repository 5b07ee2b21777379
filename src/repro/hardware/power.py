"""System power model and energy metering.

The Juno board exposes per-channel power registers (big cluster, small
cluster, and the rest of the system); the paper's QoS Monitor samples them
once per monitoring interval.  :class:`PowerModel` computes the same three
channels from the platform description plus per-core utilizations, and
:class:`EnergyMeter` integrates them over time, mimicking the cumulative
energy registers read by ARM's ``readenergy`` tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from repro.hardware.cores import Cluster, CoreKind
from repro.hardware.soc import KernelConfig, Platform


@dataclass(frozen=True)
class ClusterPowerCoefficients:
    """Per-operating-point constants of one cluster's power law.

    ``power = static_w + sum_over_active_cores(dynamic_w * activity)``
    with ``activity = idle_fraction + (1 - idle_fraction) * utilization``.
    Hoisting these out of the interval loop removes the per-core
    frequency validation and voltage lookups from the hot path while
    keeping the arithmetic identical to
    :meth:`repro.hardware.cores.CoreType.dynamic_power_w`.
    """

    static_w: float
    dynamic_w: float
    idle_fraction: float

    def cluster_power_w(
        self, utilizations: np.ndarray, *, power_gate_idle: bool
    ) -> float:
        """Cluster power for per-core utilizations (dense, cluster order)."""
        total = self.static_w
        idle = self.idle_fraction
        busy = 1.0 - idle
        for util in utilizations:
            util = float(util)
            if not 0.0 <= util <= 1.0:
                raise ValueError(f"utilization must be within [0, 1], got {util}")
            if util == 0.0 and power_gate_idle:
                continue
            total += self.dynamic_w * (idle + busy * util)
        return total


class PowerBreakdown(NamedTuple):
    """Instantaneous power split by measurement channel, watts.

    A named tuple: the engine builds one per monitoring interval.
    """

    big_w: float
    small_w: float
    rest_w: float

    @property
    def total_w(self) -> float:
        """System power: sum of both clusters and the rest of the system."""
        return self.big_w + self.small_w + self.rest_w


@dataclass(frozen=True)
class PowerModel:
    """Computes per-channel power from frequencies and core utilizations."""

    platform: Platform
    kernel: KernelConfig = KernelConfig()
    #: Per-(cluster, frequency) coefficient memo; operating points are a
    #: small discrete set, so this stays tiny over a run.
    _coeffs: dict[tuple[str, float], ClusterPowerCoefficients] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def cluster_coefficients(
        self, cluster: Cluster, freq_ghz: float
    ) -> ClusterPowerCoefficients:
        """The cluster's power-law constants at one operating point."""
        key = (cluster.name, freq_ghz)
        coeffs = self._coeffs.get(key)
        if coeffs is None:
            core = cluster.core_type
            v = core.voltage(freq_ghz)
            scale = (freq_ghz / core.max_freq_ghz) * v * v
            coeffs = ClusterPowerCoefficients(
                static_w=cluster.static_power(freq_ghz),
                dynamic_w=core.core_dynamic_w * scale,
                idle_fraction=core.idle_fraction,
            )
            self._coeffs[key] = coeffs
        return coeffs

    def breakdown(
        self,
        big_freq_ghz: float,
        small_freq_ghz: float,
        utilizations: Mapping[str, float],
    ) -> PowerBreakdown:
        """Per-channel power for one interval.

        Parameters
        ----------
        big_freq_ghz, small_freq_ghz:
            Current operating point of each cluster's DVFS domain.
        utilizations:
            Core id to utilization in ``[0, 1]``; absent cores are idle.
            Idle cores are power-gated only when CPUidle is enabled.

        Thin adapter over :meth:`breakdown_array` for callers holding
        string-keyed state; the engine reads through the array path.
        """
        platform = self.platform
        unknown = set(utilizations) - set(platform.core_ids)
        if unknown:
            raise ValueError(f"unknown core ids: {sorted(unknown)}")
        dense = np.array(
            [float(utilizations.get(cid, 0.0)) for cid in platform.core_ids]
        )
        return self.breakdown_array(big_freq_ghz, small_freq_ghz, dense)

    def breakdown_array(
        self,
        big_freq_ghz: float,
        small_freq_ghz: float,
        utilizations: np.ndarray,
    ) -> PowerBreakdown:
        """Array-native :meth:`breakdown` over the dense core index.

        ``utilizations[i]`` belongs to core ``platform.core_ids[i]`` (big
        cluster first).  Cached per-operating-point coefficients replace
        the per-core voltage/validation work of the dict path; the
        floating-point arithmetic is unchanged.
        """
        platform = self.platform
        gate = self.kernel.cpuidle_enabled
        n_big = platform.big.n_cores
        big = self.cluster_coefficients(platform.big, big_freq_ghz)
        small = self.cluster_coefficients(platform.small, small_freq_ghz)
        return PowerBreakdown(
            big_w=big.cluster_power_w(utilizations[:n_big], power_gate_idle=gate),
            small_w=small.cluster_power_w(utilizations[n_big:], power_gate_idle=gate),
            rest_w=platform.rest_of_system_w,
        )

    def cluster_characterization_power_w(
        self, kind: CoreKind, freq_ghz: float, n_active: int
    ) -> float:
        """Power reported by the paper's Table 2 methodology.

        Table 2 runs the stress microbenchmark on ``n_active`` cores of one
        cluster and reports that cluster's register plus the system
        register (the other cluster is left out of the sum).
        """
        cluster = self.platform.cluster(kind)
        if not 0 <= n_active <= cluster.n_cores:
            raise ValueError(f"n_active must be within [0, {cluster.n_cores}]")
        utils = {cid: 1.0 for cid in cluster.core_ids[:n_active]}
        return (
            cluster.power_w(
                freq_ghz, utils, power_gate_idle=self.kernel.cpuidle_enabled
            )
            + self.platform.rest_of_system_w
        )


@dataclass
class EnergyMeter:
    """Cumulative per-channel energy, like Juno's energy registers.

    ``read()`` returns monotonically increasing joule counters; experiments
    difference successive reads, exactly as ``readenergy`` users do.
    """

    _big_j: float = field(init=False, default=0.0)
    _small_j: float = field(init=False, default=0.0)
    _rest_j: float = field(init=False, default=0.0)
    _elapsed_s: float = field(init=False, default=0.0)

    def record(self, breakdown: PowerBreakdown, duration_s: float) -> None:
        """Integrate a constant power breakdown over ``duration_s`` seconds."""
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        self._big_j += breakdown.big_w * duration_s
        self._small_j += breakdown.small_w * duration_s
        self._rest_j += breakdown.rest_w * duration_s
        self._elapsed_s += duration_s

    def record_many(self, big_w, small_w, rest_w, duration_s: float) -> None:
        """Integrate many equal-length intervals of constant power.

        Equivalent to calling :meth:`record` once per entry, in order --
        the accumulation stays a sequential scalar ``+=`` per channel so
        the counters are bit-identical to the one-at-a-time path (the
        engine's epoch fast path depends on that).
        """
        if duration_s < 0:
            raise ValueError("duration_s must be non-negative")
        big_j = self._big_j
        small_j = self._small_j
        rest_j = self._rest_j
        elapsed = self._elapsed_s
        big_list = np.asarray(big_w, dtype=float).tolist()
        small_list = np.asarray(small_w, dtype=float).tolist()
        rest_list = np.asarray(rest_w, dtype=float).tolist()
        for b, s, r in zip(big_list, small_list, rest_list):
            big_j += b * duration_s
            small_j += s * duration_s
            rest_j += r * duration_s
            elapsed += duration_s
        self._big_j = big_j
        self._small_j = small_j
        self._rest_j = rest_j
        self._elapsed_s = elapsed

    def read(self) -> dict[str, float]:
        """Cumulative energy per channel, joules."""
        return {
            "big": self._big_j,
            "small": self._small_j,
            "sys": self._rest_j,
            "total": self.total_j,
        }

    @property
    def total_j(self) -> float:
        """Total energy across all channels, joules."""
        return self._big_j + self._small_j + self._rest_j

    @property
    def elapsed_s(self) -> float:
        """Total metered wall-clock time, seconds."""
        return self._elapsed_s

    @property
    def mean_power_w(self) -> float:
        """Average system power over the metered period, watts."""
        if self._elapsed_s == 0:
            return 0.0
        return self.total_j / self._elapsed_s
