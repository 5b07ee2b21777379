"""Named scenario families and the paper's standard run lengths.

The registry maps a family name to a spec factory, so the experiment
modules (and the CLI) build their runs by *declaring* a family plus a
few parameters instead of hand-wiring ``run_experiment`` calls::

    spec = DEFAULT_REGISTRY.build(
        "diurnal-policy", workload="memcached", manager="hipster-in",
        quick=True,
    )

Families registered here cover every shape the paper's evaluation uses:
a policy over the diurnal day (Figures 5-10, Table 3), a pinned
configuration at steady load (Figures 2/3), the 100%-load calibration
point (Table 1), the warm-up-then-ramp trace (Figure 8), and Web-Search
collocated with a SPEC program (Figure 11).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable

from repro.errors import UnknownNameError, UnknownParamError
from repro.scenarios.spec import DEFAULT_SEED, ScenarioSpec, TraceSpec

#: Paper run lengths: Figures 5/6 span ~1400 s for Memcached and ~1000 s
#: for Web-Search; quick runs compress the day so CI stays fast.
FULL_DURATION_S = {"memcached": 1400.0, "websearch": 1000.0}
QUICK_DURATION_S = {"memcached": 420.0, "websearch": 360.0}

#: Learning-phase length (Section 4.1): 500 s, 200 s in Figure 9.
FULL_LEARNING_S = 500.0
QUICK_LEARNING_S = 150.0

#: Default noise seed of the diurnal day (kept distinct from run seeds).
DIURNAL_TRACE_SEED = 11

#: Managers that take a learning-phase duration.
_LEARNING_MANAGERS = frozenset({"hipster-in", "hipster-co"})


def learning_seconds(*, quick: bool = False) -> float:
    """Learning-phase duration matching the run length."""
    return QUICK_LEARNING_S if quick else FULL_LEARNING_S


def diurnal_duration_s(workload: str, *, quick: bool = False) -> float:
    """The workload's diurnal-day length at full or compressed setting."""
    table = QUICK_DURATION_S if quick else FULL_DURATION_S
    return table[workload]


class ScenarioRegistry:
    """Name -> spec-factory mapping with decorator registration.

    Factories usually build a single-node
    :class:`~repro.scenarios.spec.ScenarioSpec`; the fleet families in
    :mod:`repro.fleet.families` register factories that build a
    :class:`~repro.fleet.spec.FleetSpec` under the same namespace, so a
    registry entry is any callable returning a frozen run description.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., Any]] = {}
        #: Each factory's accepted keywords, read once at registration
        #: (``build`` validates against them on every call).
        self._accepted: dict[str, tuple[str, ...] | None] = {}

    def register(self, name: str, factory: Callable[..., Any] | None = None):
        """Register a factory under ``name`` (usable as a decorator)."""

        def _add(fn: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._factories:
                raise ValueError(f"scenario family {name!r} already registered")
            self._factories[name] = fn
            self._accepted[name] = _keyword_params(fn)
            return fn

        return _add(factory) if factory is not None else _add

    def build(self, name: str, **kwargs: Any) -> Any:
        """Build one spec from the named family.

        Unknown family names raise :class:`~repro.errors.UnknownNameError`
        and unknown keyword arguments
        :class:`~repro.errors.UnknownParamError` -- both list the valid
        choices and append a "did you mean" suggestion, and both remain
        catchable as the bare ``KeyError``/``TypeError`` the pre-facade
        registry raised.
        """
        try:
            factory = self._factories[name]
        except KeyError:
            raise UnknownNameError(
                "scenario family", name, self.names()
            ) from None
        accepted = self._accepted[name]
        if accepted is not None:
            unknown = sorted(set(kwargs) - set(accepted))
            if unknown:
                raise UnknownParamError(
                    f"scenario family {name!r}", unknown, accepted
                )
        return factory(**kwargs)

    def family_params(self, name: str) -> tuple[str, ...] | None:
        """The keyword parameters the named family accepts, or ``None``
        when its factory takes ``**kwargs`` (nothing to validate against).
        """
        try:
            return self._accepted[name]
        except KeyError:
            raise UnknownNameError(
                "scenario family", name, self.names()
            ) from None

    def names(self) -> tuple[str, ...]:
        """Registered family names, sorted."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)


def _keyword_params(factory: Callable[..., Any]) -> tuple[str, ...] | None:
    """The keyword parameters ``factory`` accepts, or ``None`` when it
    takes ``**kwargs``."""
    params = inspect.signature(factory).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return None
    return tuple(
        n
        for n, p in params.items()
        if p.kind
        in (
            inspect.Parameter.KEYWORD_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        )
    )


DEFAULT_REGISTRY = ScenarioRegistry()


def manager_params_with_learning(
    manager: str,
    manager_params: dict[str, Any] | None,
    *,
    quick: bool,
    learning_s: float | None,
) -> dict[str, Any]:
    """Fill in the quick-appropriate learning phase for Hipster variants."""
    params = dict(manager_params or {})
    if manager in _LEARNING_MANAGERS and "learning_duration_s" not in params:
        params["learning_duration_s"] = (
            learning_s if learning_s is not None else learning_seconds(quick=quick)
        )
    return params


@DEFAULT_REGISTRY.register("diurnal-policy")
def diurnal_policy(
    *,
    workload: str,
    manager: str,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    trace_seed: int = DIURNAL_TRACE_SEED,
    manager_params: dict[str, Any] | None = None,
    learning_s: float | None = None,
    batch_jobs: str | None = None,
) -> ScenarioSpec:
    """One policy over the workload's diurnal day (Figs 5-10, Table 3)."""
    return ScenarioSpec(
        workload=workload,
        trace=TraceSpec.diurnal(
            diurnal_duration_s(workload, quick=quick), seed=trace_seed
        ),
        manager=manager,
        manager_params=manager_params_with_learning(
            manager, manager_params, quick=quick, learning_s=learning_s
        ),
        batch_jobs=batch_jobs,
        seed=seed,
        label=f"{workload}/{manager}/diurnal",
    )


@DEFAULT_REGISTRY.register("steady-config")
def steady_config(
    *,
    workload: str,
    config_label: str,
    load: float,
    duration_s: float,
    seed: int = DEFAULT_SEED,
    cpuidle: bool = True,
) -> ScenarioSpec:
    """A pinned configuration at steady load, characterization kernel
    setting (CPUidle on, unused cores power-gate) -- Figures 2 and 3."""
    return ScenarioSpec(
        workload=workload,
        trace=TraceSpec.constant(load, duration_s),
        manager="static-config",
        manager_params={"label": config_label},
        cpuidle=cpuidle,
        seed=seed,
        label=f"{workload}@{load:.2f}/{config_label}",
    )


@DEFAULT_REGISTRY.register("edge-load")
def edge_load(
    *,
    workload: str,
    duration_s: float = 240.0,
    seed: int = DEFAULT_SEED,
    level: float = 1.0,
    demand_mean_ms: float | None = None,
) -> ScenarioSpec:
    """Static-big at (by default) 100% load: the Table 1 calibration
    operating point.  ``demand_mean_ms`` overrides the workload's frozen
    service demand during calibration bisection."""
    return ScenarioSpec(
        workload=workload,
        trace=TraceSpec.constant(level, duration_s),
        manager="static-big",
        workload_params=(
            {} if demand_mean_ms is None else {"demand_mean_ms": demand_mean_ms}
        ),
        seed=seed,
        label=f"{workload}@edge",
    )


@DEFAULT_REGISTRY.register("load-ramp")
def load_ramp(
    *,
    manager: str,
    workload: str = "memcached",
    warmup_s: float = 700.0,
    start_level: float = 0.50,
    end_level: float = 1.00,
    ramp_s: float = 175.0,
    hold_s: float = 25.0,
    trace_seed: int = 7,
    seed: int = DEFAULT_SEED,
    manager_params: dict[str, Any] | None = None,
    learning_s: float | None = None,
) -> ScenarioSpec:
    """Diurnal warm-up followed by the Figure 8 load ramp."""
    return ScenarioSpec(
        workload=workload,
        trace=TraceSpec.concat(
            TraceSpec.diurnal(warmup_s, seed=trace_seed),
            TraceSpec.ramp(start_level, end_level, ramp_s, hold_s=hold_s),
        ),
        manager=manager,
        manager_params=manager_params_with_learning(
            manager, manager_params, quick=False, learning_s=learning_s
        ),
        seed=seed,
        label=f"{workload}/{manager}/ramp",
    )


@DEFAULT_REGISTRY.register("collocation")
def collocation(
    *,
    manager: str,
    program: str,
    workload: str = "websearch",
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    manager_params: dict[str, Any] | None = None,
) -> ScenarioSpec:
    """Web-Search sharing the machine with one SPEC CPU2006 program per
    leftover core (Figure 11)."""
    spec = diurnal_policy(
        workload=workload,
        manager=manager,
        quick=quick,
        seed=seed,
        manager_params=manager_params,
        batch_jobs=f"spec:{program}",
    )
    return spec.with_(label=f"{workload}+{program}/{manager}")


#: The Table 3 policy line-up, in the paper's display order.
STANDARD_POLICIES = (
    "static-big",
    "static-small",
    "hipster-heuristic",
    "octopus-man",
    "hipster-in",
)


def standard_policy_specs(
    workload: str, *, quick: bool = False, seed: int = DEFAULT_SEED
) -> dict[str, ScenarioSpec]:
    """Diurnal-day specs for the Table 3 line-up, keyed by policy name."""
    return {
        manager: DEFAULT_REGISTRY.build(
            "diurnal-policy",
            workload=workload,
            manager=manager,
            quick=quick,
            seed=seed,
        )
        for manager in STANDARD_POLICIES
    }
