"""Table 3: HipsterIn summary -- QoS, tardiness and energy per policy.

Runs the five policies of the paper's Table 3 (static all-big, static
all-small, Hipster's heuristic alone, Octopus-Man, HipsterIn) over the
diurnal day for both workloads, reporting QoS guarantee, QoS tardiness,
and energy reduction relative to static all-big.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.reporting import ascii_table
from repro.experiments.runner import DEFAULT_SEED
from repro.fleet import run_specs
from repro.metrics.summary import PolicySummary, summarize
from repro.scenarios.registry import STANDARD_POLICIES, standard_policy_specs
from repro.sim.batch import BatchRunner

#: Policy display order, as in the paper's table.
POLICY_ORDER = STANDARD_POLICIES


@dataclass(frozen=True)
class Table3Result:
    """Summaries for every (policy, workload) pair."""

    summaries: dict[tuple[str, str], PolicySummary]

    def get(self, policy: str, workload: str) -> PolicySummary:
        return self.summaries[(policy, workload)]

    def render(self) -> str:
        rows = []
        for policy in POLICY_ORDER:
            for workload in ("memcached", "websearch"):
                s = self.get(policy, workload)
                rows.append(
                    [
                        policy,
                        workload,
                        f"{s.qos_guarantee_pct:.1f}%",
                        f"{s.qos_tardiness:.2f}",
                        f"{s.energy_reduction_pct:.1f}%",
                        s.migration_events,
                    ]
                )
        return ascii_table(
            [
                "policy",
                "workload",
                "QoS guarantee",
                "tardiness",
                "energy saved",
                "migr",
            ],
            rows,
            title="Table 3 -- policy summary over the diurnal day",
        )


def run(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> Table3Result:
    """Regenerate Table 3.

    The (workload x policy) grid is declared through the scenario
    registry and dispatched as one batch; the static-big run of each
    workload then serves as that workload's normalization baseline.
    """
    grid: list[tuple[str, dict]] = [
        (workload_name, standard_policy_specs(workload_name, quick=quick, seed=seed))
        for workload_name in ("memcached", "websearch")
    ]
    all_specs = [spec for _, specs in grid for spec in specs.values()]
    results = (o.result for o in run_specs(all_specs, runner))

    summaries: dict[tuple[str, str], PolicySummary] = {}
    for workload_name, specs in grid:
        by_policy = {name: next(results) for name in specs}
        baseline = by_policy.pop("static-big")
        summaries[("static-big", workload_name)] = summarize(baseline)
        for name, result in by_policy.items():
            summaries[(name, workload_name)] = summarize(result, baseline)
    return Table3Result(summaries=summaries)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
