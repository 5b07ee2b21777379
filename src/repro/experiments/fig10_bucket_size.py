"""Figure 10: impact of the load-bucket size on QoS and energy savings.

Small buckets give fine-grained control (more energy saved) but react to
noise with rapid configuration changes (more QoS violations); large
buckets are stable but lump distinct loads together.  The paper sweeps
{3, 6, 9}% for Web-Search and {2, 3, 4}% for Memcached, normalizing both
metrics to the static all-big mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.buckets import DEFAULT_BUCKET_SIZE, PAPER_BUCKET_SWEEP
from repro.experiments.reporting import ascii_table
from repro.fleet import run_specs
from repro.scenarios import DEFAULT_REGISTRY, DEFAULT_SEED
from repro.scenarios.spec import thaw_params
from repro.sim.batch import BatchRunner


@dataclass(frozen=True)
class BucketRow:
    """Outcome of one bucket size on one workload."""

    workload_name: str
    bucket_size: float
    qos_violations_pct: float
    energy_reduction_pct: float
    migration_events: int


@dataclass(frozen=True)
class Fig10Result:
    """The full bucket-size sweep for both workloads."""

    rows: tuple[BucketRow, ...]

    def rows_for(self, workload_name: str) -> tuple[BucketRow, ...]:
        return tuple(r for r in self.rows if r.workload_name == workload_name)

    def render(self) -> str:
        return ascii_table(
            ["workload", "bucket", "QoS violations", "energy saved", "migrations"],
            [
                [
                    r.workload_name,
                    f"{r.bucket_size * 100:.0f}%",
                    f"{r.qos_violations_pct:.1f}%",
                    f"{r.energy_reduction_pct:.1f}%",
                    r.migration_events,
                ]
                for r in self.rows
            ],
            title="Figure 10 -- bucket-size sweep (normalized to static all-big)",
        )


def run(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> Fig10Result:
    """Regenerate Figure 10.

    The bucket grid varies the HipsterIn ``bucket_size`` parameter and
    is dispatched as one batch together with the per-workload static
    baselines.
    """
    groups = []
    specs = []
    for workload_name, sweep in PAPER_BUCKET_SWEEP.items():
        baseline_spec = DEFAULT_REGISTRY.build(
            "diurnal-policy",
            workload=workload_name,
            manager="static-big",
            quick=quick,
            seed=seed,
        )
        hipster_base = DEFAULT_REGISTRY.build(
            "diurnal-policy",
            workload=workload_name,
            manager="hipster-in",
            quick=quick,
            seed=seed,
        )
        base_params = thaw_params(hipster_base.manager_params)
        default_bucket = base_params.get(
            "bucket_size", DEFAULT_BUCKET_SIZE[workload_name]
        )
        groups.append((workload_name, sweep))
        specs.append(baseline_spec)
        # The default bucket is the shared diurnal run itself; an
        # explicit ``bucket_size`` would re-run it under another key.
        specs.extend(
            hipster_base
            if bucket_size == default_bucket
            else hipster_base.with_(
                manager_params={**base_params, "bucket_size": bucket_size}
            )
            for bucket_size in sweep
        )

    results = (o.result for o in run_specs(specs, runner))
    rows: list[BucketRow] = []
    for workload_name, sweep in groups:
        baseline = next(results)
        for bucket_size in sweep:
            result = next(results)
            rows.append(
                BucketRow(
                    workload_name=workload_name,
                    bucket_size=bucket_size,
                    qos_violations_pct=(1.0 - result.qos_guarantee()) * 100.0,
                    energy_reduction_pct=result.energy_reduction_vs(baseline) * 100.0,
                    migration_events=result.migration_events(),
                )
            )
    return Fig10Result(rows=tuple(rows))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
