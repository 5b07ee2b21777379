"""Figure 8: rapid adaptation to load changes (Memcached load ramp).

The paper ramps Memcached from 50% to 100% of maximum load over 175 s and
compares the per-interval QoS tardiness of HipsterIn (in its exploitation
phase) against Octopus-Man: HipsterIn jumps directly to configurations
that satisfy QoS, so its tardiness in the 75-90% load region is several
times lower (3.7x mean in the paper).

Both managers first see a warm-up period (diurnal day) so that HipsterIn
has finished learning before the measured ramp starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import ascii_table, series_block
from repro.experiments.runner import DEFAULT_SEED
from repro.fleet import run_specs
from repro.scenarios import DEFAULT_REGISTRY
from repro.sim.batch import BatchRunner
from repro.sim.records import ExperimentResult

#: The measured ramp (paper: 50% -> 100% over 175 s).
RAMP_START, RAMP_END, RAMP_SECONDS = 0.50, 1.00, 175.0

#: The load region the paper's 3.7x tardiness comparison covers.
COMPARISON_REGION = (0.75, 0.90)


@dataclass(frozen=True)
class Fig8Result:
    """Ramp-window traces for HipsterIn and Octopus-Man."""

    hipster: ExperimentResult
    octopus: ExperimentResult
    warmup_s: float

    def _ramp(self, result: ExperimentResult) -> ExperimentResult:
        return result.slice(self.warmup_s)

    def tardiness_ratio(self) -> float:
        """Mean Octopus-Man tardiness over HipsterIn's, 75-90% load region.

        Tardiness here is per-interval ``QoS_curr / QoS_target`` (above 1
        means a violation); the paper reports HipsterIn 3.7x lower.
        """
        lo, hi = COMPARISON_REGION
        ratios = []
        for result in (self.octopus, self.hipster):
            ramp = self._ramp(result)
            mask = (ramp.loads >= lo) & (ramp.loads <= hi)
            tard = ramp.tails_ms[mask] / ramp.target_latency_ms
            ratios.append(float(np.mean(tard)) if mask.any() else float("nan"))
        octo, hip = ratios
        return octo / hip if hip > 0 else float("inf")

    def render(self) -> str:
        hip, octo = self._ramp(self.hipster), self._ramp(self.octopus)
        return "\n".join(
            [
                "Figure 8 -- Memcached 50%->100% ramp: QoS tardiness",
                series_block("load (% of max)", hip.loads * 100, unit="%"),
                series_block(
                    "HipsterIn tardiness", hip.tails_ms / hip.target_latency_ms
                ),
                series_block(
                    "Octopus-Man tardiness", octo.tails_ms / octo.target_latency_ms
                ),
                ascii_table(
                    ["metric", "HipsterIn", "Octopus-Man"],
                    [
                        [
                            "ramp QoS guarantee",
                            f"{hip.qos_guarantee() * 100:.1f}%",
                            f"{octo.qos_guarantee() * 100:.1f}%",
                        ],
                        [
                            "mean tardiness (75-90% load)",
                            f"{np.mean((hip.tails_ms / hip.target_latency_ms)[(hip.loads >= 0.75) & (hip.loads <= 0.9)]):.2f}",
                            f"{np.mean((octo.tails_ms / octo.target_latency_ms)[(octo.loads >= 0.75) & (octo.loads <= 0.9)]):.2f}",
                        ],
                    ],
                ),
                f"Octopus-Man / HipsterIn tardiness ratio: {self.tardiness_ratio():.2f}x",
            ]
        )


def run(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> Fig8Result:
    """Regenerate Figure 8."""
    warmup_s = 360.0 if quick else 700.0
    specs = [
        DEFAULT_REGISTRY.build(
            "load-ramp",
            manager=manager,
            warmup_s=warmup_s,
            start_level=RAMP_START,
            end_level=RAMP_END,
            ramp_s=RAMP_SECONDS,
            seed=seed,
            learning_s=min(300.0, warmup_s - 60.0),
        )
        for manager in ("hipster-in", "octopus-man")
    ]
    hipster, octopus = [o.result for o in run_specs(specs, runner)]
    return Fig8Result(hipster=hipster, octopus=octopus, warmup_s=warmup_s)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
