"""Shared-resource contention between collocated workloads.

Collocating batch jobs with a latency-critical service degrades the
service's QoS at higher loads through shared L2 and memory-bandwidth
pressure (paper Section 3.5, corroborating Heracles).  The model here is
deliberately first-order: each batch program carries a *memory intensity*
in ``[0, 1]``; pressure aggregates linearly per cluster (shared L2) and
globally (shared DRAM bandwidth), and inflates latency-critical service
demand / deflates batch throughput multiplicatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hardware.cores import CoreKind


@dataclass(frozen=True)
class ClusterPressure:
    """Aggregate memory pressure from batch programs, by location."""

    big: float
    small: float

    @property
    def total(self) -> float:
        """Global (bandwidth) pressure across both clusters."""
        return self.big + self.small

    def on_cluster(self, kind: CoreKind) -> float:
        """Same-cluster (shared L2) pressure for the given cluster."""
        return self.big if kind is CoreKind.BIG else self.small


def aggregate_pressure_indexed(
    mem_intensities: Sequence[float],
    on_big_cluster: Sequence[bool],
) -> ClusterPressure:
    """Sum batch memory intensities into per-cluster pressure.

    ``mem_intensities[i]`` and ``on_big_cluster[i]`` describe the i-th
    batch-occupied core (in placement order); each cluster's sum runs in
    that order.
    """
    big = sum(v for v, is_big in zip(mem_intensities, on_big_cluster) if is_big)
    small = sum(v for v, is_big in zip(mem_intensities, on_big_cluster) if not is_big)
    return ClusterPressure(big=big, small=small)


@dataclass(frozen=True)
class ContentionModel:
    """First-order interference model.

    Parameters
    ----------
    lc_l2_weight, lc_bw_weight:
        Service-demand inflation per unit of same-cluster / global batch
        pressure, further scaled by the workload's own contention
        sensitivity.
    batch_l2_weight, batch_bw_weight:
        Batch IPS degradation per unit of pressure from *other* programs
        (same cluster / global), plus the latency-critical workload's own
        pressure contribution.
    """

    lc_l2_weight: float = 0.10
    lc_bw_weight: float = 0.05
    batch_l2_weight: float = 0.06
    batch_bw_weight: float = 0.04

    def lc_slowdown(
        self,
        cluster_kind: CoreKind,
        pressure: ClusterPressure,
        *,
        sensitivity: float = 1.0,
    ) -> float:
        """Service-demand multiplier (>= 1) for LC threads on a cluster."""
        if sensitivity < 0:
            raise ValueError("sensitivity must be non-negative")
        penalty = (
            self.lc_l2_weight * pressure.on_cluster(cluster_kind)
            + self.lc_bw_weight * pressure.total
        )
        return 1.0 + sensitivity * penalty

    def batch_throughput_factor(
        self,
        cluster_kind: CoreKind,
        own_intensity: float,
        pressure: ClusterPressure,
        *,
        lc_pressure: float = 0.0,
    ) -> float:
        """IPS multiplier (<= 1) for one batch program instance.

        ``pressure`` includes the program's own contribution, which is
        subtracted out -- a program does not contend with itself.
        ``lc_pressure`` is the latency-critical workload's memory
        intensity when it shares the cluster.
        """
        same = max(pressure.on_cluster(cluster_kind) - own_intensity, 0.0)
        total = max(pressure.total - own_intensity, 0.0)
        penalty = (
            self.batch_l2_weight * (same + lc_pressure)
            + self.batch_bw_weight * (total + lc_pressure)
        )
        return 1.0 / (1.0 + penalty)
