"""Table 1: workload configurations, maximum loads and tail targets.

Mostly a configuration printout, but the maximum-load column is *checked*
rather than copied: the paper defines max load as the highest load at
which two big cores at max DVFS meet the target, and
:mod:`repro.experiments.calibration` re-derives that operating point on
the simulated platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.calibration import EDGE_QUANTILE
from repro.experiments.reporting import ascii_table
from repro.experiments.runner import DEFAULT_SEED
from repro.fleet import run_specs
from repro.scenarios import DEFAULT_REGISTRY
from repro.sim.batch import BatchRunner
from repro.workloads.memcached import memcached
from repro.workloads.websearch import websearch


@dataclass(frozen=True)
class Table1Row:
    """One workload's contract plus the re-measured edge tail."""

    workload: str
    max_load_rps: float
    qos_percentile: float
    target_ms: float
    edge_tail_ms: float

    @property
    def edge_ok(self) -> bool:
        """Whether max load indeed sits at the edge of the target."""
        return abs(self.edge_tail_ms - self.target_ms) / self.target_ms <= 0.25


@dataclass(frozen=True)
class Table1Result:
    rows: tuple[Table1Row, ...]

    def render(self) -> str:
        return ascii_table(
            ["workload", "max load", "tail percentile", "target", "edge tail @100%"],
            [
                [
                    r.workload,
                    f"{r.max_load_rps:.0f} rps",
                    f"p{r.qos_percentile * 100:.0f}",
                    f"{r.target_ms:.0f} ms",
                    f"{r.edge_tail_ms:.1f} ms ({'ok' if r.edge_ok else 'DRIFTED'})",
                ]
                for r in self.rows
            ],
            title="Table 1 -- workload configurations and re-derived max loads",
        )


def run(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> Table1Result:
    """Regenerate Table 1."""
    duration = 120.0 if quick else 240.0
    workloads = (memcached(), websearch())
    specs = [
        DEFAULT_REGISTRY.build(
            "edge-load", workload=w.name, duration_s=duration, seed=seed
        )
        for w in workloads
    ]
    results = [o.result for o in run_specs(specs, runner)]
    rows = []
    for workload, result in zip(workloads, results):
        tail = float(np.quantile(result.tails_ms, EDGE_QUANTILE))
        rows.append(
            Table1Row(
                workload=workload.name,
                max_load_rps=workload.max_load_rps,
                qos_percentile=workload.qos_percentile,
                target_ms=workload.target_latency_ms,
                edge_tail_ms=tail,
            )
        )
    return Table1Result(rows=tuple(rows))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
