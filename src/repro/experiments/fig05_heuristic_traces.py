"""Figure 5: static vs Octopus-Man vs Hipster's heuristic, trace view.

For each workload, runs the three heuristic-family policies over the
diurnal day and reports the four panels the paper plots per policy: tail
latency, throughput, DVFS, and core mapping -- plus the headline summary
(static violates least, the heuristics oscillate and violate more while
saving energy, and Hipster's heuristic explores configurations
Octopus-Man cannot reach).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import ascii_table, series_block
from repro.experiments.table3_summary import PolicySummary, summarize
from repro.fleet import run_specs
from repro.scenarios import DEFAULT_REGISTRY, DEFAULT_SEED
from repro.sim.batch import BatchRunner
from repro.sim.records import ExperimentResult

#: The heuristic-family line-up of Figure 5.
FIG5_POLICIES = ("static-big", "octopus-man", "hipster-heuristic")


@dataclass(frozen=True)
class Fig5Result:
    """Traces and summaries for one workload's three policies."""

    workload_name: str
    runs: dict[str, ExperimentResult]
    summaries: dict[str, PolicySummary]

    def mixed_config_intervals(self, policy: str) -> int:
        """Intervals where the policy used big *and* small cores at once.

        Octopus-Man can never produce these; Hipster's heuristic does --
        the paper's Figure 5 bottom panels.
        """
        mixed = self.runs[policy].table.decision_values(
            lambda d: d.config.n_big > 0 and d.config.n_small > 0
        )
        return int(np.count_nonzero(mixed))

    def distinct_big_freqs(self, policy: str) -> int:
        """DVFS points the policy actually used on the big cluster."""
        return len(set(self.runs[policy].table.column("big_freq_ghz").tolist()))

    def render(self) -> str:
        blocks = [f"Figure 5 -- heuristic policies on {self.workload_name}"]
        for name, run_result in self.runs.items():
            blocks.append(f"\n--- {name} ---")
            blocks.append(series_block("tail latency (ms)", run_result.tails_ms))
            blocks.append(series_block("throughput (rps)", run_result.arrival_rps))
            table = run_result.table
            blocks.append(series_block("big DVFS (GHz)", table.column("big_freq_ghz")))
            blocks.append(
                series_block(
                    "LC cores",
                    table.decision_values(lambda d: d.config.total_cores),
                )
            )
        blocks.append("")
        blocks.append(
            ascii_table(
                ["policy", "QoS %", "migrations", "mixed-config intervals", "DVFS pts"],
                [
                    [
                        name,
                        f"{s.qos_guarantee_pct:.1f}",
                        s.migration_events,
                        self.mixed_config_intervals(name),
                        self.distinct_big_freqs(name),
                    ]
                    for name, s in self.summaries.items()
                ],
            )
        )
        return "\n".join(blocks)


def run(
    workload_name: str = "memcached",
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> Fig5Result:
    """Regenerate one row of Figure 5."""
    specs = [
        DEFAULT_REGISTRY.build(
            "diurnal-policy",
            workload=workload_name,
            manager=manager,
            quick=quick,
            seed=seed,
        )
        for manager in FIG5_POLICIES
    ]
    results = [o.result for o in run_specs(specs, runner)]
    runs = dict(zip(FIG5_POLICIES, results))
    summaries = {name: summarize(result) for name, result in runs.items()}
    return Fig5Result(workload_name=workload_name, runs=runs, summaries=summaries)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run("memcached", quick=True).render())
