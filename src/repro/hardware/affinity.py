"""Core-assignment bookkeeping: ``sched_setaffinity`` and job control.

The paper's Mapper Module pins the latency-critical workload to cores with
``sched_setaffinity``, hands leftover cores to batch jobs, and parks batch
jobs with ``SIGSTOP``/``SIGCONT`` when no core is available for them.  This
module provides the same mechanics over the simulated platform and counts
core migrations, because migrations (unlike DVFS changes) are the expensive
transitions whose cost drives the paper's central QoS argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.soc import Platform
from repro.hardware.topology import Configuration, validate_configuration


@dataclass(frozen=True)
class Placement:
    """Result of applying a configuration: who runs where.

    ``batch_assignment`` maps core id to the index of the batch job running
    there; batch jobs not present in the mapping are suspended (SIGSTOP).
    """

    lc_cores: tuple[str, ...]
    batch_assignment: dict[str, int]
    migrated_cores: int
    migration_event: bool


@dataclass
class AffinityManager:
    """Tracks which cores the latency-critical and batch workloads occupy.

    Latency-critical cores are always the lowest-numbered cores of each
    cluster, which keeps placement deterministic and makes migration
    counting meaningful (a ``2B2S -> 2B2S`` redecision moves nothing).
    """

    platform: Platform
    _lc_cores: frozenset[str] = field(init=False, default_factory=frozenset)
    _migration_events: int = field(init=False, default=0)

    def lc_core_ids(self, config: Configuration) -> tuple[str, ...]:
        """Deterministic core ids for a configuration (big first)."""
        validate_configuration(self.platform, config)
        return (
            self.platform.big.core_ids[: config.n_big]
            + self.platform.small.core_ids[: config.n_small]
        )

    def apply(
        self,
        config: Configuration,
        *,
        n_batch_jobs: int = 0,
    ) -> Placement:
        """Pin the latency-critical workload and distribute batch jobs.

        Batch jobs are assigned one per remaining core (the paper runs as
        many batch program instances as there are cores left over); if
        there are fewer jobs than free cores the extras stay idle, and if
        there are more jobs than cores the surplus jobs are suspended.
        """
        lc_cores = self.lc_core_ids(config)
        new_lc = frozenset(lc_cores)
        moved = len(new_lc.symmetric_difference(self._lc_cores))
        event = moved > 0 and bool(self._lc_cores)
        if event:
            self._migration_events += 1
        self._lc_cores = new_lc

        remaining = [cid for cid in self.platform.core_ids if cid not in new_lc]
        batch_assignment = {
            core_id: job for job, core_id in enumerate(remaining[:n_batch_jobs])
        }
        return Placement(
            lc_cores=lc_cores,
            batch_assignment=batch_assignment,
            migrated_cores=moved,
            migration_event=event,
        )

    @property
    def migration_events(self) -> int:
        """Number of intervals whose reconfiguration moved at least one core."""
        return self._migration_events
