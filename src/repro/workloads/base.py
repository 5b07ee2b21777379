"""Latency-critical workload models.

A :class:`LatencyCriticalWorkload` describes a request-serving service as a
service-demand distribution plus a QoS contract (tail percentile and target
latency, Table 1 of the paper).  Demands are expressed in *reference
seconds*: the time the request takes on one big core at the highest DVFS.
A core's *speed* converts demand into service time; it scales with the
core's IPC and clock relative to the reference core, so DVFS and big/small
placement fall out naturally.

Time dilation
-------------
Simulating 36 000 requests/s in Python is infeasible, so high-rate
workloads run as a time-dilated replica: arrival rate is divided by
``sim_scale`` and every demand multiplied by it, which preserves
utilization exactly and scales all queueing delays linearly (a standard
G/G/k property).  Reported latencies are scaled back and the network/stack
``base_latency_ms`` floor is added after de-dilation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.hardware.cores import CoreType
from repro.hardware.soc import Platform
from repro.hardware.topology import Configuration, validate_configuration


@dataclass(frozen=True)
class LatencyCriticalWorkload:
    """A request-serving, QoS-constrained service (Memcached, Web-Search).

    Parameters
    ----------
    name:
        Workload name.
    qos_percentile:
        Tail percentile defining QoS, as a fraction (0.95 = p95).
    target_latency_ms:
        The tail-latency target, ``QoS_target`` in the paper.
    max_load_rps:
        Requests per second at 100% load (Table 1: the highest load at
        which two big cores at max DVFS meet the target).
    demand_mean_ms:
        Mean service demand on the reference core (big @ max DVFS), ms.
    demand_sigma:
        Log-normal sigma of the demand distribution; larger values give
        heavier tails and a softer latency-vs-load knee.
    base_latency_ms:
        Load-independent latency floor (network round trip, kernel stack).
    sim_scale:
        Time-dilation factor for the simulated replica (see module doc).
    small_core_penalty:
        Extra demand multiplier on in-order small cores beyond the IPC
        ratio (out-of-order-sensitive request processing).
    mem_intensity:
        The workload's own memory pressure contribution, used by the
        contention model when batch jobs share a cluster.
    contention_sensitivity:
        How strongly batch pressure inflates this workload's demand.
    n_threads:
        Worker threads; cores beyond this count cannot be used.
    lc_ipc_fraction:
        Instructions retired per cycle relative to the microbenchmark,
        used only to report realistic perf-counter values for LC cores.
    burstiness:
        Mean arrival batch size (1.0 = Poisson); see
        :class:`repro.sim.queueing.DispatchQueue`.
    """

    name: str
    qos_percentile: float
    target_latency_ms: float
    max_load_rps: float
    demand_mean_ms: float
    demand_sigma: float
    base_latency_ms: float
    sim_scale: float = 1.0
    small_core_penalty: float = 1.0
    mem_intensity: float = 0.5
    contention_sensitivity: float = 1.0
    n_threads: int = 4
    lc_ipc_fraction: float = 0.75
    burstiness: float = 1.0
    #: Memoized log-normal location parameter (see :meth:`sample_demands`).
    _demand_mu: float | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.qos_percentile < 1.0:
            raise ValueError("qos_percentile must be a fraction in (0, 1)")
        for attr in (
            "target_latency_ms",
            "max_load_rps",
            "demand_mean_ms",
            "sim_scale",
            "small_core_penalty",
        ):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        if self.demand_sigma < 0 or self.base_latency_ms < 0:
            raise ValueError("demand_sigma and base_latency_ms must be non-negative")
        if self.n_threads < 1:
            raise ValueError("n_threads must be at least 1")

    # ------------------------------------------------------------------
    # demand / arrival model (time-dilated)
    # ------------------------------------------------------------------

    def sim_arrival_rate(self, load_fraction: float) -> float:
        """Dilated arrival rate for the simulated replica, requests/s."""
        if load_fraction < 0:
            raise ValueError("load_fraction must be non-negative")
        return load_fraction * self.max_load_rps / self.sim_scale

    def sample_demands(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` dilated service demands, reference-seconds."""
        mu = self._demand_mu
        if mu is None:
            mean_s = self.demand_mean_ms * 1e-3 * self.sim_scale
            mu = np.log(mean_s) - 0.5 * self.demand_sigma**2
            # Frozen dataclass, so memoize through object.__setattr__; the
            # value is a pure function of frozen fields.
            object.__setattr__(self, "_demand_mu", mu)
        return rng.lognormal(mu, self.demand_sigma, n)

    def reported_latency_ms(
        self, sim_latencies_s: np.ndarray, *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """De-dilate queue latencies and add the network/stack floor.

        The result goes to ``out`` when given -- a float64 buffer the
        caller owns, which may be ``sim_latencies_s`` itself (the engine
        converts the queue kernel's fresh latency buffer in place) --
        and to a new array otherwise; the arithmetic is the same.
        """
        out = np.divide(
            np.asarray(sim_latencies_s, dtype=float), self.sim_scale, out=out
        )
        np.multiply(out, 1e3, out=out)
        np.add(out, self.base_latency_ms, out=out)
        return out

    @property
    def idle_latency_ms(self) -> float:
        """Latency of an unloaded service: floor plus one mean service."""
        return self.base_latency_ms + self.demand_mean_ms

    # ------------------------------------------------------------------
    # QoS contract
    # ------------------------------------------------------------------

    def qos_met(self, tail_latency_ms: float) -> bool:
        """Whether a measured tail satisfies the target."""
        return tail_latency_ms <= self.target_latency_ms

    def tardiness(self, tail_latency_ms: float) -> float:
        """``QoS_curr / QoS_target`` (Section 3.4)."""
        return tail_latency_ms / self.target_latency_ms

    # ------------------------------------------------------------------
    # core speed law
    # ------------------------------------------------------------------

    def core_speed(
        self, core_type: CoreType, freq_ghz: float, reference: CoreType
    ) -> float:
        """Service speed of one core relative to the reference big core.

        Speed follows ``IPC * f`` scaling, normalized to the reference
        (big) core at its maximum frequency; in-order small cores pay the
        additional ``small_core_penalty``.
        """
        core_type.validate_freq(freq_ghz)
        rel = (core_type.microbench_ipc * freq_ghz) / (
            reference.microbench_ipc * reference.max_freq_ghz
        )
        if core_type is not reference and core_type.kind != reference.kind:
            rel /= self.small_core_penalty
        return rel

    def with_overrides(self, **changes: object) -> "LatencyCriticalWorkload":
        """A copy with some parameters replaced (e.g. a different scale)."""
        return replace(self, **changes)


def lc_server_speeds(
    workload: LatencyCriticalWorkload,
    platform: Platform,
    config: Configuration,
    *,
    big_slowdown: float = 1.0,
    small_slowdown: float = 1.0,
) -> list[float]:
    """Queue-server speeds for a configuration's cores, big cores first.

    The list is truncated to the workload's thread count: allocating more
    cores than worker threads buys nothing (the paper's configuration
    space therefore stops at four cores).  Slowdowns >= 1 come from the
    contention model when batch jobs share a cluster.
    """
    if big_slowdown < 1.0 or small_slowdown < 1.0:
        raise ValueError("slowdowns must be >= 1")
    validate_configuration(platform, config)
    reference = platform.big.core_type
    speeds: list[float] = []
    if config.n_big:
        big_speed = (
            workload.core_speed(platform.big.core_type, config.big_freq_ghz, reference)
            / big_slowdown
        )
        speeds.extend([big_speed] * config.n_big)
    if config.n_small:
        small_speed = (
            workload.core_speed(
                platform.small.core_type, config.small_freq_ghz, reference
            )
            / small_slowdown
        )
        speeds.extend([small_speed] * config.n_small)
    return speeds[: workload.n_threads]


def capacity_rps(
    workload: LatencyCriticalWorkload,
    platform: Platform,
    config: Configuration,
) -> float:
    """Nominal saturation throughput of a configuration, requests/s.

    Aggregate speed divided by mean demand.  A useful screening bound:
    offered load above this cannot meet any finite latency target.
    """
    speeds = lc_server_speeds(workload, platform, config)
    return sum(speeds) / (workload.demand_mean_ms * 1e-3)
