"""Figure 3: efficiency lost when using the *other* workload's state machine.

The paper's point: the per-load optimal configuration mapping (Figure 2c)
is workload-specific.  Running Memcached with Web-Search's mapping (and
vice versa) forfeits up to ~35% energy efficiency at some load levels,
which motivates learning the mapping online instead of hard-coding one.

Methodology here: build both state machines with the Figure 2 sweep; at
each load level, evaluate the workload under its own winning
configuration and under the other workload's winner (escalating along the
other machine if that configuration violates QoS, as its danger-zone
controller would), and report the efficiency ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.fig02_efficiency import (
    PAPER_LOAD_LEVELS,
    Fig2Result,
    run as run_fig2,
)
from repro.experiments.reporting import ascii_table
from repro.experiments.runner import DEFAULT_SEED
from repro.fleet import run_specs
from repro.scenarios import DEFAULT_REGISTRY, ScenarioSpec
from repro.sim.batch import BatchRunner
from repro.sim.records import ExperimentResult


@dataclass(frozen=True)
class CrossRow:
    """One load level: own vs foreign efficiency for one workload."""

    load: float
    own_config: str
    foreign_config: str
    efficiency_ratio: float  # foreign / own; < 1 means efficiency lost


@dataclass(frozen=True)
class Fig3Result:
    """Normalized cross-machine efficiency for both workloads."""

    memcached_rows: tuple[CrossRow, ...]
    websearch_rows: tuple[CrossRow, ...]

    def worst_loss(self, workload_name: str) -> float:
        """Largest efficiency loss (1 - ratio) for a workload."""
        rows = (
            self.memcached_rows if workload_name == "memcached" else self.websearch_rows
        )
        if not rows:
            return 0.0
        return max(1.0 - row.efficiency_ratio for row in rows)

    def render(self) -> str:
        blocks = []
        for name, rows in (
            ("memcached", self.memcached_rows),
            ("websearch", self.websearch_rows),
        ):
            table = ascii_table(
                ["load", "own config", "foreign config", "normalized efficiency"],
                [
                    [
                        f"{r.load * 100:.0f}%",
                        r.own_config,
                        r.foreign_config,
                        f"{r.efficiency_ratio:.2f}",
                    ]
                    for r in rows
                ],
                title=(
                    f"Figure 3 -- {name} under the other workload's state machine "
                    f"(worst loss {self.worst_loss(name) * 100:.0f}%)"
                ),
            )
            blocks.append(table)
        return "\n\n".join(blocks)


def _steady_spec(
    workload_name: str, load: float, label: str, *, duration_s: float, seed: int
) -> ScenarioSpec:
    return DEFAULT_REGISTRY.build(
        "steady-config",
        workload=workload_name,
        config_label=label,
        load=load,
        duration_s=duration_s,
        seed=seed,
    )


def _efficiency(result: ExperimentResult) -> tuple[float, bool]:
    """(throughput per watt, QoS met) of one steady-load evaluation."""
    power = result.mean_power_w()
    return float(np.mean(result.arrival_rps)) / power, result.qos_guarantee() >= 0.9


def _cross_rows(
    workload_name: str,
    own: Fig2Result,
    foreign: Fig2Result,
    *,
    duration_s: float,
    seed: int,
    runner: BatchRunner | None,
) -> tuple[CrossRow, ...]:
    """Own-vs-foreign rows, batched: every candidate along the foreign
    escalation walk is declared up front and dispatched together; the
    walk itself (stop at the first QoS-meeting candidate, as the foreign
    danger-zone controller would) is applied to the returned results."""
    foreign_machine = [c for c in foreign.hetcmp if c is not None]
    pending: list[tuple[float, str, list[str]]] = []
    specs: list[ScenarioSpec] = []
    for own_choice, foreign_choice in zip(own.hetcmp, foreign.hetcmp):
        if own_choice is None or foreign_choice is None:
            continue
        load = own_choice.load
        start = next(
            i
            for i, c in enumerate(foreign_machine)
            if c.config_label == foreign_choice.config_label
        )
        candidates = [c.config_label for c in foreign_machine[start:]]
        specs.append(
            _steady_spec(
                workload_name,
                load,
                own_choice.config_label,
                duration_s=duration_s,
                seed=seed,
            )
        )
        specs.extend(
            _steady_spec(workload_name, load, label, duration_s=duration_s, seed=seed)
            for label in candidates
        )
        pending.append((load, own_choice.config_label, candidates))

    results = (o.result for o in run_specs(specs, runner))
    rows = []
    for load, own_label, candidates in pending:
        own_eff, _ = _efficiency(next(results))
        candidate_evals = [_efficiency(next(results)) for _ in candidates]
        foreign_eff, foreign_label = 0.0, candidates[0] if candidates else own_label
        for label, (eff, met) in zip(candidates, candidate_evals):
            foreign_eff, foreign_label = eff, label
            if met:
                break
        rows.append(
            CrossRow(
                load=load,
                own_config=own_label,
                foreign_config=foreign_label,
                efficiency_ratio=foreign_eff / own_eff if own_eff > 0 else 0.0,
            )
        )
    return tuple(rows)


def run(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    loads: tuple[float, ...] = PAPER_LOAD_LEVELS,
    runner: BatchRunner | None = None,
) -> Fig3Result:
    """Regenerate Figure 3 from fresh Figure 2 sweeps."""
    duration = 20.0 if quick else 40.0
    mc = run_fig2("memcached", quick=quick, seed=seed, loads=loads, runner=runner)
    ws = run_fig2("websearch", quick=quick, seed=seed, loads=loads, runner=runner)
    return Fig3Result(
        memcached_rows=_cross_rows(
            "memcached", mc, ws, duration_s=duration, seed=seed, runner=runner
        ),
        websearch_rows=_cross_rows(
            "websearch", ws, mc, duration_s=duration, seed=seed, runner=runner
        ),
    )


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
