"""The stable public facade: four entry points over the whole library.

Everything an external caller needs funnels through here::

    from repro.api import run_scenario, run_pack, sweep, open_runner

    outcome = run_scenario("diurnal-policy", workload="memcached",
                           manager="hipster-in", quick=True)
    print(outcome.result.qos_guarantee())

    with open_runner(jobs=4, cache_dir=".cache") as runner:
        results = sweep("edge-load", {"level": [0.5, 1.0]},
                        workload="memcached", runner=runner)
        report = run_pack("packs/ci-smoke.yaml", runner=runner)

The facade is intentionally small and **stable**: these four callables,
the result types they return and the error hierarchy in
:mod:`repro.errors` are the supported surface; everything else may move
between releases.  Bad names and parameters raise
:class:`~repro.errors.ReproError` subclasses with actionable messages
(valid choices plus a "did you mean" suggestion).
"""

from __future__ import annotations

import itertools
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import (
    ExecutionError,
    PackError,
    ReproError,
    ResumeMismatchError,
    RunInterruptedError,
    SpecFailedError,
    SpecTimeoutError,
    UnknownNameError,
    UnknownParamError,
    WorkerCrashError,
)
from repro.fleet.aggregate import FleetOutcome, run_specs
from repro.fleet.spec import FleetSpec
from repro.packs.runner import PackResult, run_pack
from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.scenarios.spec import ScenarioOutcome, ScenarioSpec
from repro.sim.batch import BatchRunner
from repro.sim.records import ExperimentResult
from repro.sim.supervise import RetryPolicy, RunJournal


def open_runner(
    *,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    **options: Any,
) -> BatchRunner:
    """A batch runner: the execution context every facade call accepts.

    Use as a context manager (``with open_runner(jobs=4) as runner:``)
    so the worker pool shuts down and the disk cache gets its compaction
    pass.  Extra ``options`` forward to :class:`BatchRunner` (e.g.
    ``retry_policy`` or ``journal``).
    """
    return BatchRunner(jobs=jobs, cache_dir=cache_dir, **options)


def _build_spec(family: str, kwargs: Mapping[str, Any]) -> Any:
    import repro.fleet  # noqa: F401  (registers the fleet-* families)

    return DEFAULT_REGISTRY.build(family, **kwargs)


def run_scenario(
    scenario: str | ScenarioSpec | FleetSpec,
    *,
    runner: BatchRunner | None = None,
    **params: Any,
) -> ScenarioOutcome | FleetOutcome:
    """Run one scenario: a registry family name or an explicit spec.

    A family name builds its spec through the registry (``params`` are
    the family's keyword arguments); a ready-made
    :class:`ScenarioSpec` / :class:`FleetSpec` runs as-is (``params``
    must then be empty).  Single-node runs return a
    :class:`ScenarioOutcome`, fleet runs a :class:`FleetOutcome`.
    """
    if isinstance(scenario, str):
        spec = _build_spec(scenario, params)
    else:
        if params:
            raise TypeError(
                "params only apply when building from a family name; "
                "use spec.with_(...) to modify an explicit spec"
            )
        spec = scenario
    (outcome,) = run_specs([spec], runner)
    return outcome


def sweep(
    family: str,
    over: Mapping[str, Iterable[Any]],
    *,
    runner: BatchRunner | None = None,
    **common: Any,
) -> list[tuple[dict[str, Any], Any]]:
    """Run a family across a parameter grid, batched through one runner.

    ``over`` maps parameter names to the values to sweep; the grid is
    the cartesian product over **sorted** names, so result order (and
    caching) is independent of mapping order.  Returns
    ``(assignment, outcome)`` pairs in grid order.  The whole grid --
    single-node specs and every fleet's node specs alike -- goes to the
    runner as one :func:`~repro.fleet.aggregate.run_specs` batch, so
    cost-aware scheduling plans the whole sweep.
    """
    names = sorted(over)
    grids = [list(over[name]) for name in names]
    for name, values in zip(names, grids):
        if not values:
            raise ValueError(f"sweep values for {name!r} must be non-empty")
    assignments = [
        dict(zip(names, combo)) for combo in itertools.product(*grids)
    ]
    specs = [
        _build_spec(family, {**common, **assignment})
        for assignment in assignments
    ]
    return list(zip(assignments, run_specs(specs, runner)))


__all__ = [
    "BatchRunner",
    "ExecutionError",
    "ExperimentResult",
    "FleetOutcome",
    "FleetSpec",
    "PackError",
    "PackResult",
    "ReproError",
    "ResumeMismatchError",
    "RetryPolicy",
    "RunInterruptedError",
    "RunJournal",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SpecFailedError",
    "SpecTimeoutError",
    "UnknownNameError",
    "UnknownParamError",
    "WorkerCrashError",
    "open_runner",
    "run_pack",
    "run_scenario",
    "sweep",
]
