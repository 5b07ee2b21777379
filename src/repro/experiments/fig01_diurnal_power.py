"""Figure 1: power drawn for a diurnal load, Web-Search on two big cores.

The paper's motivating figure: while load swings between ~5% and ~95% of
maximum capacity, server power never falls much below ~60% of its peak --
the energy-proportionality gap Hipster attacks.  We reproduce it by
running Web-Search under the static all-big mapping across one compressed
diurnal day and reporting load and power as percentages of their peaks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import ascii_table, series_block
from repro.experiments.runner import DEFAULT_SEED
from repro.fleet import run_specs
from repro.scenarios import DEFAULT_REGISTRY
from repro.sim.batch import BatchRunner


@dataclass(frozen=True)
class Fig1Result:
    """Per-interval load and power, both as percent of their peaks."""

    times_s: np.ndarray
    qps_percent: np.ndarray
    power_percent: np.ndarray

    @property
    def min_power_percent(self) -> float:
        """The floor of the power curve -- the paper's ~60% claim."""
        return float(np.min(self.power_percent))

    @property
    def load_range_percent(self) -> tuple[float, float]:
        """Span of the offered load over the day."""
        return float(np.min(self.qps_percent)), float(np.max(self.qps_percent))

    def render(self) -> str:
        lo, hi = self.load_range_percent
        return "\n".join(
            [
                "Figure 1 -- diurnal load vs server power (Web-Search on 2B-1.15)",
                series_block("QPS   (% of max)", self.qps_percent, unit="%"),
                series_block("Power (% of max)", self.power_percent, unit="%"),
                ascii_table(
                    ["metric", "value"],
                    [
                        ["load range", f"{lo:.0f}% .. {hi:.0f}%"],
                        ["power floor", f"{self.min_power_percent:.0f}% of peak"],
                    ],
                ),
            ]
        )


def run(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> Fig1Result:
    """Regenerate Figure 1."""
    spec = DEFAULT_REGISTRY.build(
        "diurnal-policy",
        workload="websearch",
        manager="static-big",
        quick=quick,
        seed=seed,
    )
    result = run_specs([spec], runner)[0].result
    power = result.powers_w
    return Fig1Result(
        times_s=result.times_s,
        # Offered load, not raw per-interval arrival counts: the paper's
        # QPS curve integrates tens of thousands of requests per point,
        # while the replica's per-interval Poisson-burst counts would add
        # sampling noise that is an artifact of the simulation.
        qps_percent=result.loads * 100.0,
        power_percent=power / float(np.max(power)) * 100.0,
    )


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
