"""Figure 2: throughput-per-watt of HetCMP vs the baseline policy.

For each load level the paper selects, among the configurations that meet
QoS, the one with the least power -- once over the full heterogeneous
configuration space (HetCMP) and once over the baseline policy's subset
(exclusively big or small cores at maximum DVFS).  The per-load HetCMP
winners are the workload's *state machine* (Figure 2c), which Figure 3
then cross-applies between workloads.

The sweep runs with CPUidle enabled (characterization setting: unused
cores power-gate) and a steady load per level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import ascii_table
from repro.experiments.runner import DEFAULT_SEED, workload_by_name
from repro.fleet import run_specs
from repro.hardware.juno import juno_r1
from repro.hardware.topology import (
    Configuration,
    enumerate_configurations,
    octopus_man_ladder,
)
from repro.scenarios import DEFAULT_REGISTRY, ScenarioSpec
from repro.sim.batch import BatchRunner
from repro.sim.records import ExperimentResult
from repro.workloads.base import LatencyCriticalWorkload, capacity_rps

#: Load levels swept (fraction of max), spanning the paper's 13 columns.
PAPER_LOAD_LEVELS = (
    0.18, 0.25, 0.33, 0.40, 0.47, 0.55, 0.62, 0.69, 0.77, 0.84, 0.91, 0.97, 1.0,
)

#: A configuration qualifies at a load level when at least this fraction
#: of its steady-state intervals meets the target.
QOS_PASS_FRACTION = 0.9


@dataclass(frozen=True)
class LoadLevelChoice:
    """The winning configuration at one load level for one policy."""

    load: float
    config_label: str
    power_w: float
    throughput_per_watt: float


@dataclass(frozen=True)
class Fig2Result:
    """Per-load winners for HetCMP and the baseline policy."""

    workload_name: str
    hetcmp: tuple[LoadLevelChoice | None, ...]
    baseline: tuple[LoadLevelChoice | None, ...]
    loads: tuple[float, ...]

    @property
    def state_machine(self) -> tuple[tuple[float, str], ...]:
        """Figure 2c: the per-load optimal configuration labels."""
        return tuple(
            (choice.load, choice.config_label)
            for choice in self.hetcmp
            if choice is not None
        )

    def mean_efficiency_gain(self) -> float:
        """Mean HetCMP-over-baseline throughput/W gain at levels both solve."""
        gains = [
            h.throughput_per_watt / b.throughput_per_watt
            for h, b in zip(self.hetcmp, self.baseline)
            if h is not None and b is not None and b.throughput_per_watt > 0
        ]
        return float(np.mean(gains)) if gains else float("nan")

    def render(self) -> str:
        rows = []
        for load, het, base in zip(self.loads, self.hetcmp, self.baseline):
            rows.append(
                [
                    f"{load * 100:.0f}%",
                    het.config_label if het else "-",
                    f"{het.throughput_per_watt:.1f}" if het else "-",
                    base.config_label if base else "-",
                    f"{base.throughput_per_watt:.1f}" if base else "-",
                ]
            )
        return "\n".join(
            [
                ascii_table(
                    ["load", "HetCMP", "RPS/W", "baseline", "RPS/W"],
                    rows,
                    title=(
                        f"Figure 2 -- per-load best configurations "
                        f"({self.workload_name}); mean HetCMP gain "
                        f"{self.mean_efficiency_gain():.2f}x"
                    ),
                )
            ]
        )


def candidate_specs(
    workload: LatencyCriticalWorkload,
    platform,
    load: float,
    configs: tuple[Configuration, ...],
    *,
    duration_s: float,
    seed: int,
) -> tuple[tuple[Configuration, ...], list[ScenarioSpec]]:
    """Capacity-eligible configurations at a load level, plus their specs.

    Configurations whose aggregate capacity cannot possibly meet any
    latency target at the offered demand are pruned before simulation.
    """
    demand = load * workload.max_load_rps
    eligible = tuple(
        config
        for config in configs
        if capacity_rps(workload, platform, config) >= demand * 0.9
    )
    specs = [
        DEFAULT_REGISTRY.build(
            "steady-config",
            workload=workload.name,
            config_label=config.label,
            load=load,
            duration_s=duration_s,
            seed=seed,
        )
        for config in eligible
    ]
    return eligible, specs


def pick_winner(
    load: float,
    eligible: tuple[Configuration, ...],
    results: list[ExperimentResult],
) -> LoadLevelChoice | None:
    """Least-power QoS-meeting configuration among evaluated candidates."""
    best: LoadLevelChoice | None = None
    for config, result in zip(eligible, results):
        if result.qos_guarantee() < QOS_PASS_FRACTION:
            continue
        power = result.mean_power_w()
        if best is None or power < best.power_w:
            best = LoadLevelChoice(
                load=load,
                config_label=config.label,
                power_w=power,
                throughput_per_watt=float(np.mean(result.arrival_rps)) / power,
            )
    return best


def best_configuration(
    platform,
    workload: LatencyCriticalWorkload,
    load: float,
    configs: tuple[Configuration, ...],
    *,
    duration_s: float = 40.0,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> LoadLevelChoice | None:
    """Least-power QoS-meeting configuration at one steady load level."""
    eligible, specs = candidate_specs(
        workload, platform, load, configs, duration_s=duration_s, seed=seed
    )
    return pick_winner(load, eligible, [o.result for o in run_specs(specs, runner)])


def run(
    workload_name: str = "memcached",
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    loads: tuple[float, ...] = PAPER_LOAD_LEVELS,
    runner: BatchRunner | None = None,
) -> Fig2Result:
    """Regenerate Figure 2a/2b (and the Figure 2c state machine).

    The whole (policy space x load level x configuration) grid is
    declared up front and dispatched as one batch, so ``--jobs N``
    parallelizes the sweep; winners are picked from the returned results.
    """
    platform = juno_r1()
    workload = workload_by_name(workload_name)
    duration = 20.0 if quick else 40.0
    space = enumerate_configurations(platform, max_total_cores=4)
    baseline_set = octopus_man_ladder(platform)
    if quick:
        loads = loads[::2]

    grid: list[tuple[str, float, tuple[Configuration, ...], list[ScenarioSpec]]] = []
    for policy_space, configs in (("hetcmp", space), ("baseline", baseline_set)):
        for load in loads:
            eligible, specs = candidate_specs(
                workload, platform, load, configs, duration_s=duration, seed=seed
            )
            grid.append((policy_space, load, eligible, specs))

    all_specs = [spec for _, _, _, specs in grid for spec in specs]
    all_results = (o.result for o in run_specs(all_specs, runner))
    winners: dict[str, list[LoadLevelChoice | None]] = {"hetcmp": [], "baseline": []}
    for policy_space, load, eligible, specs in grid:
        results = [next(all_results) for _ in specs]
        winners[policy_space].append(pick_winner(load, eligible, results))

    return Fig2Result(
        workload_name=workload_name,
        hetcmp=tuple(winners["hetcmp"]),
        baseline=tuple(winners["baseline"]),
        loads=loads,
    )


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run("memcached", quick=True).render())
