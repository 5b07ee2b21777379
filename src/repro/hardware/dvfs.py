"""Per-cluster DVFS control, emulating Linux ``acpi-cpufreq`` (userspace governor).

The paper controls DVFS through ``acpi-cpufreq`` and notes (Section 3.6,
citing Kasture et al.) that DVFS transitions cost microseconds while core
migrations cost milliseconds.  :class:`DVFSController` tracks the current
operating point of each cluster, validates requested frequencies against
the discrete operating-point table, and counts transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.cores import Cluster


@dataclass
class DVFSController:
    """Userspace-governor style frequency control over a set of clusters.

    The controller is the single writer of per-cluster frequency state;
    the engine and the power model read from it.
    """

    clusters: tuple[Cluster, ...]
    _freq_by_cluster: dict[str, float] = field(init=False)
    _transitions: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cluster names: {names}")
        self._freq_by_cluster = {c.name: c.max_freq_ghz for c in self.clusters}

    def _cluster(self, name: str) -> Cluster:
        for cluster in self.clusters:
            if cluster.name == name:
                return cluster
        raise KeyError(f"unknown cluster {name!r}")

    def frequency(self, cluster_name: str) -> float:
        """Current operating point of a cluster in GHz (scaling_cur_freq)."""
        if cluster_name not in self._freq_by_cluster:
            raise KeyError(f"unknown cluster {cluster_name!r}")
        return self._freq_by_cluster[cluster_name]

    def set_frequency(self, cluster_name: str, freq_ghz: float) -> bool:
        """Request an operating point; returns True if a transition occurred.

        Raises ``ValueError`` for frequencies that are not valid operating
        points, mirroring a write of an unsupported value to
        ``scaling_setspeed``.
        """
        cluster = self._cluster(cluster_name)
        cluster.core_type.validate_freq(freq_ghz)
        if self._freq_by_cluster[cluster_name] == freq_ghz:
            return False
        self._freq_by_cluster[cluster_name] = freq_ghz
        self._transitions += 1
        return True

    @property
    def transitions(self) -> int:
        """Number of frequency transitions performed so far."""
        return self._transitions

    def snapshot(self) -> dict[str, float]:
        """Current frequency of every cluster, by cluster name."""
        return dict(self._freq_by_cluster)
