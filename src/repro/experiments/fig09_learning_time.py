"""Figure 9: impact of learning time on the QoS guarantee (Web-Search).

The paper shortens the learning phase to 200 s and plots the QoS
guarantee over consecutive 100 s windows: HipsterIn improves steadily as
the lookup table converges, while Octopus-Man stays flat (around 80% in
the paper) because it never exploits history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import ascii_table
from repro.experiments.runner import DEFAULT_SEED
from repro.fleet import run_specs
from repro.scenarios import DEFAULT_REGISTRY
from repro.sim.batch import BatchRunner

#: Figure 9's setup: learning phase shortened to 200 s, 100 s windows.
FIG9_LEARNING_S = 200.0
WINDOW_S = 100.0


@dataclass(frozen=True)
class Fig9Result:
    """Per-window QoS guarantees for HipsterIn and Octopus-Man."""

    hipster_windows: np.ndarray
    octopus_windows: np.ndarray
    window_s: float
    learning_s: float

    def late_improvement(self) -> float:
        """HipsterIn's late-run advantage over Octopus-Man (fractional).

        Compares mean per-window QoS after learning ends.
        """
        start = int(self.learning_s // self.window_s)
        hip = float(np.mean(self.hipster_windows[start:]))
        octo = float(np.mean(self.octopus_windows[start:]))
        if octo == 0:
            return float("inf")
        return hip / octo - 1.0

    def render(self) -> str:
        rows = [
            [
                i,
                f"{h * 100:.0f}%",
                f"{o * 100:.0f}%",
                "learning" if (i + 1) * self.window_s <= self.learning_s else "",
            ]
            for i, (h, o) in enumerate(
                zip(self.hipster_windows, self.octopus_windows)
            )
        ]
        return ascii_table(
            ["window", "HipsterIn", "Octopus-Man", "phase"],
            rows,
            title=(
                "Figure 9 -- QoS guarantee per 100 s window (Web-Search, "
                f"200 s learning); late advantage "
                f"{self.late_improvement() * 100:+.1f}%"
            ),
        )


def run(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> Fig9Result:
    """Regenerate Figure 9."""
    learning_s = 100.0 if quick else FIG9_LEARNING_S
    specs = [
        DEFAULT_REGISTRY.build(
            "diurnal-policy",
            workload="websearch",
            manager=manager,
            quick=quick,
            seed=seed,
            learning_s=learning_s,
        )
        for manager in ("hipster-in", "octopus-man")
    ]
    hipster, octopus = [o.result for o in run_specs(specs, runner)]
    return Fig9Result(
        hipster_windows=hipster.windowed_qos_guarantee(WINDOW_S),
        octopus_windows=octopus.windowed_qos_guarantee(WINDOW_S),
        window_s=WINDOW_S,
        learning_s=learning_s,
    )


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
