"""Figure 6: HipsterIn running Memcached over the diurnal day.

The paper's observation: after the learning phase, core-mapping
oscillation drops and the QoS guarantee improves compared to the learning
phase -- HipsterIn jumps directly to the right configuration per load and
leans on cheap DVFS changes instead of costly migrations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import ascii_table, series_block
from repro.fleet import run_specs
from repro.scenarios import DEFAULT_REGISTRY, DEFAULT_SEED, learning_seconds
from repro.sim.batch import BatchRunner
from repro.sim.records import ExperimentResult

WORKLOAD_NAME = "memcached"


@dataclass(frozen=True)
class HipsterTraceResult:
    """A HipsterIn run split at the end of the (first) learning phase."""

    workload_name: str
    result: ExperimentResult
    learning_s: float
    phase_switches: int

    @property
    def learning(self) -> ExperimentResult:
        return self.result.slice(0.0, self.learning_s)

    @property
    def exploitation(self) -> ExperimentResult:
        return self.result.slice(self.learning_s)

    def render(self) -> str:
        result = self.result
        return "\n".join(
            [
                f"Figure 6/7 -- HipsterIn on {self.workload_name}",
                series_block("tail latency (ms)", result.tails_ms),
                series_block("throughput (rps)", result.arrival_rps),
                series_block("big DVFS (GHz)", result.table.column("big_freq_ghz")),
                series_block(
                    "LC cores",
                    result.table.decision_values(lambda d: d.config.total_cores),
                ),
                ascii_table(
                    ["metric", "learning", "exploitation"],
                    [
                        [
                            "QoS guarantee",
                            f"{self.learning.qos_guarantee() * 100:.1f}%",
                            f"{self.exploitation.qos_guarantee() * 100:.1f}%",
                        ],
                        [
                            "migrations/interval",
                            f"{self.learning.migration_events() / max(len(self.learning), 1):.3f}",
                            f"{self.exploitation.migration_events() / max(len(self.exploitation), 1):.3f}",
                        ],
                        [
                            "mean power (W)",
                            f"{self.learning.mean_power_w():.2f}",
                            f"{self.exploitation.mean_power_w():.2f}",
                        ],
                    ],
                ),
            ]
        )


def run_hipster_trace(
    workload_name: str,
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> HipsterTraceResult:
    """Shared driver for Figures 6 and 7."""
    spec = DEFAULT_REGISTRY.build(
        "diurnal-policy",
        workload=workload_name,
        manager="hipster-in",
        quick=quick,
        seed=seed,
    )
    (outcome,) = run_specs([spec], runner)
    return HipsterTraceResult(
        workload_name=workload_name,
        result=outcome.result,
        learning_s=learning_seconds(quick=quick),
        phase_switches=outcome.stat("phase_switches", 0),
    )


def run(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> HipsterTraceResult:
    """Regenerate Figure 6."""
    return run_hipster_trace(WORKLOAD_NAME, quick=quick, seed=seed, runner=runner)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
