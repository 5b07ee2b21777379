"""The three benchmark workloads, generated from the seed alone.

* ``paper-quick`` -- every artifact of ``hipster-repro all --quick
  --seed S``, rendered exactly as that command prints it.
* ``fleet-faults`` -- a scenario pack built here from the seed: two
  multi-rack ``hipster-in`` fleets with correlated fault clauses
  (``rack-death`` with detection and repair, ``cascading-straggler``,
  ``brownout-wave``), compiled with ``parse_pack``/``compile_pack``.
* ``warm-replay`` -- both of the above, re-served from a disk cache.

``span`` is a callable returning a context manager (a
:meth:`~perfbench.spans.Recorder.span` in traced runs, a no-op
otherwise); the workloads open the spans that only their call sites can
see -- pack compile, each experiment, each render.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable

#: Experiments whose ``run`` takes the workload name first, and the
#: workload ``all`` gives them (mirrors the CLI's defaults).
_WORKLOAD_EXPERIMENTS = {"fig2", "fig5", "fleet-scale"}
_DEFAULT_WORKLOAD = "memcached"

#: Worker processes per workload (at most ``nproc`` = 2).
JOBS = {"paper-quick": 1, "fleet-faults": 2, "warm-replay": 1}
USES_EXPERIMENTS = ("paper-quick", "warm-replay")
USES_PACKS = ("fleet-faults", "warm-replay")

#: fleet-faults shape: two fleets of four racks each.
FLEET_NODES = 48
FLEET_RACKS = 4
FLEET_DURATION_S = 180.0
#: Fleet-seed search for a viable rack-death schedule.
_RESEED_ATTEMPTS = 64
_RESEED_STRIDE = 7919


def no_span(name: str) -> Any:
    return nullcontext()


def paper_quick(seed: int, runner: Any, span: Callable = no_span) -> str:
    """The stdout of ``hipster-repro all --quick --seed <seed>``
    (without the ``[wall]``/``[cache]`` lines, which go to stderr)."""
    from repro.experiments import EXPERIMENTS

    parts = []
    for name in sorted(EXPERIMENTS):
        module = EXPERIMENTS[name]
        with span(f"experiment.{name}"):
            if name in _WORKLOAD_EXPERIMENTS:
                result = module.run(
                    _DEFAULT_WORKLOAD, quick=True, seed=seed, runner=runner
                )
            else:
                result = module.run(quick=True, seed=seed, runner=runner)
        with span("render"):
            parts.append(f"\n=== {name} ===\n{result.render()}\n")
    return "".join(parts)


def fleet_faults_document(seed: int) -> dict:
    """The fleet-faults pack document for a seed (plain data).

    Fleet, trace and fault-onset randomness all derive from ``seed``;
    the clause parameters are fixed so every seed exercises each
    correlated fault kind and the detection/repair timeline.  Rack
    deaths are random, so they can take every rack down at once, which
    the program rightly refuses to simulate; the rack-death fleet's seed
    is therefore the first of a fixed sequence whose fault schedule
    keeps a node alive throughout.
    """
    rack_death = None
    for attempt in range(_RESEED_ATTEMPTS):
        rack_death = _fleet(
            "rack-death",
            1000 + 2 * seed + _RESEED_STRIDE * attempt,
            [
                {
                    "kind": "rack-death",
                    "probability": 0.5,
                    "earliest_s": 0.2 * FLEET_DURATION_S,
                    "latest_s": 0.5 * FLEET_DURATION_S,
                    "detection_s": 5,
                    "repair_s": 0.25 * FLEET_DURATION_S,
                },
                {
                    "kind": "cascading-straggler",
                    "probability": 0.2,
                    "slowdown": 2.0,
                    "duration_s": 0.15 * FLEET_DURATION_S,
                    "spread": 0.5,
                    "lag_s": 8,
                    "detection_s": 3,
                },
            ],
        )
        if _keeps_a_node_alive(rack_death):
            break
    else:  # pragma: no cover - 0.5**4 per attempt
        raise RuntimeError(f"no viable rack-death fleet for seed {seed}")
    brownout = _fleet(
        "brownout-wave",
        1001 + 2 * seed,
        [
            {
                "kind": "brownout-wave",
                "probability": 1.0,
                "factor": 0.65,
                "duration_s": 0.15 * FLEET_DURATION_S,
                "stagger_s": 0.1 * FLEET_DURATION_S,
                "earliest_s": 0.15 * FLEET_DURATION_S,
                "latest_s": 0.35 * FLEET_DURATION_S,
                "detection_s": 4,
            },
        ],
    )
    return {
        "name": "fleet-faults",
        "description": (
            "multi-rack hipster-in fleets under correlated faults "
            f"(benchmark seed {seed})"
        ),
        "scenarios": [rack_death, brownout],
    }


def _fleet(label: str, fleet_seed: int, faults: list) -> dict:
    per_rack = FLEET_NODES // FLEET_RACKS
    return {
        "fleet": {
            "n_nodes": FLEET_NODES,
            "workload": "memcached",
            "manager": "hipster-in",
            "balancer": "least-loaded",
            "topology": {
                f"rack-{chr(ord('a') + r)}": per_rack for r in range(FLEET_RACKS)
            },
            "trace": {
                "kind": "diurnal",
                "duration_s": FLEET_DURATION_S,
                "seed": fleet_seed + 1,
            },
            "seed": fleet_seed,
            "faults": faults,
        },
        "label": label,
    }


def _keeps_a_node_alive(entry: dict) -> bool:
    """Whether some node is physically up in every interval of the
    entry's lowered fault schedule."""
    from repro.fleet.resilience import timeline_multipliers
    from repro.packs import compile_pack, parse_pack

    pack = compile_pack(parse_pack({"name": "probe", "scenarios": [entry]}))
    fleet = pack.items[0].spec
    physical, _ = timeline_multipliers(
        fleet.fault_schedule(),
        n_nodes=fleet.n_nodes,
        n_intervals=len(fleet.fleet_loads()),
    )
    return bool((physical > 0).any(axis=1).all())


def fleet_faults(document: dict, runner: Any, span: Callable = no_span) -> str:
    """Compile and run a fleet-faults pack document; returns its render."""
    from repro.packs import compile_pack, parse_pack, run_pack

    with span("packs.compile"):
        pack = compile_pack(parse_pack(document, source="perfbench:fleet-faults"))
    result = run_pack(pack, runner=runner)
    with span("render"):
        return result.render() + "\n"


def warm_replay(
    seed: int, document: dict, runner: Any, span: Callable = no_span
) -> str:
    """Both outputs, in the order the cache was filled."""
    return paper_quick(seed, runner, span) + fleet_faults(document, runner, span)


def warmup_specs() -> list:
    """Two tiny distinct specs: enough for a 2-worker pool to fork and
    import before timing starts, small enough to cost nothing."""
    from repro.scenarios.spec import ScenarioSpec, TraceSpec

    return [
        ScenarioSpec(
            workload="memcached",
            trace=TraceSpec.constant(0.2, 3.0),
            manager="static-big",
            seed=seed,
            label="perfbench-warmup",
        )
        for seed in (1, 2)
    ]
