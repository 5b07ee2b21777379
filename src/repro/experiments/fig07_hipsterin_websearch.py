"""Figure 7: HipsterIn running Web-Search over the diurnal day.

Same harness as Figure 6 (see
:mod:`repro.experiments.fig06_hipsterin_memcached`); the paper highlights
that HipsterIn performs several times fewer task migrations than
Octopus-Man on Web-Search while improving QoS, which
:func:`migration_ratio_vs_octopus` quantifies.
"""

from __future__ import annotations

from repro.experiments.fig06_hipsterin_memcached import (
    HipsterTraceResult,
    run_hipster_trace,
)
from repro.fleet import run_specs
from repro.scenarios import DEFAULT_REGISTRY, DEFAULT_SEED
from repro.sim.batch import BatchRunner

WORKLOAD_NAME = "websearch"


def run(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> HipsterTraceResult:
    """Regenerate Figure 7."""
    return run_hipster_trace(WORKLOAD_NAME, quick=quick, seed=seed, runner=runner)


def migration_ratio_vs_octopus(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    runner: BatchRunner | None = None,
) -> float:
    """Octopus-Man migrations divided by HipsterIn's (exploitation phase).

    The paper reports 4.7x fewer migrations for Web-Search (Section
    4.2.3); values above 1 reproduce the direction of that claim.
    """
    hipster = run(quick=quick, seed=seed, runner=runner)
    octopus_spec = DEFAULT_REGISTRY.build(
        "diurnal-policy",
        workload=WORKLOAD_NAME,
        manager="octopus-man",
        quick=quick,
        seed=seed,
    )
    octopus = run_specs([octopus_spec], runner)[0].result
    octo_rate = octopus.slice(hipster.learning_s).migration_events() / max(
        len(octopus.slice(hipster.learning_s)), 1
    )
    hip_rate = hipster.exploitation.migration_events() / max(
        len(hipster.exploitation), 1
    )
    if hip_rate == 0:
        return float("inf")
    return octo_rate / hip_rate


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
