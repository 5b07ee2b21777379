"""Frozen scenario descriptions and their expansion into runs.

Everything here is plain data: a :class:`ScenarioSpec` names its
workload, manager and platform by registry key (see
:mod:`repro.scenarios.factories`) and carries parameters as sorted
``(key, value)`` tuples, so specs are hashable, picklable, directly
comparable, and stable enough to fingerprint for the on-disk result
cache.  Workers rebuild the heavyweight objects -- managers, traces,
platforms -- from the factories, which preserves per-spec-seed
determinism: two runs of the same spec are the same pure function of
``(platform, workload, trace, manager, seed)`` no matter which process
executes them.
"""

from __future__ import annotations

import hashlib
import itertools
import struct
import weakref
from dataclasses import dataclass, fields, replace
from typing import Any, Iterable, Mapping

import numpy as np

from repro.sim.queueing import KERNEL_VERSION
from repro.sim.records import ExperimentResult

DEFAULT_SEED = 2017

#: Bump to invalidate every cached result when scenario semantics or the
#: result storage format change in a way the queue-kernel version does
#: not capture.  3 = block-packed ObservationTable payloads (see
#: ``repro.sim.records.STORAGE_VERSION``) and byte-keyed float runs in
#: the fingerprint; 2 = one array per column; 1 = tuple-of-dataclasses.
SCHEMA_VERSION = 3

#: Immutable parameter bag: sorted ``(key, value)`` pairs.
Params = tuple[tuple[str, Any], ...]

ParamsLike = Mapping[str, Any] | Iterable[tuple[str, Any]] | None


def freeze_params(params: ParamsLike) -> Params:
    """Normalize a mapping (or pair iterable) into sorted frozen pairs."""
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    frozen = tuple(sorted((str(k), _freeze_value(v)) for k, v in items))
    names = [k for k, _ in frozen]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate parameter names in {names}")
    return frozen


#: Parameter scalars a frozen value may hold as-is.
_SCALARS = (str, int, float, bool, type(None))
_SCALAR_TYPES = frozenset(_SCALARS)


def _freeze_value(value: Any) -> Any:
    # Scalars first: sampled node traces freeze thousands of floats, and
    # the Mapping test is a comparatively slow ABC instance check.
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= _SCALAR_TYPES:
            return tuple(value)
        return tuple(_freeze_value(v) for v in value)
    if isinstance(value, Mapping):
        return freeze_params(value)
    raise TypeError(
        f"scenario parameters must be plain data, got {type(value).__name__}: "
        f"{value!r}"
    )


def thaw_params(params: Params) -> dict[str, Any]:
    """The mutable-dict view of frozen parameters (one level deep)."""
    return dict(params)


def cache_key_prefix() -> str:
    """The version-legible prefix of every scenario cache key.

    Keys are otherwise opaque hashes; the prefix lets the on-disk cache
    recognize records stranded by a ``SCHEMA_VERSION``/``KERNEL_VERSION``
    bump (they are never looked up again, but they *are* still the
    latest record for their old key) and compact them away.
    """
    return f"s{SCHEMA_VERSION}-{KERNEL_VERSION}-"


#: Element types of a byte-keyed float run: Python and numpy floats
#: with equal values pack to equal bytes.
_FLOAT_TYPES = frozenset({float, np.float64})


def _key_skeleton(value: Any, runs: list[bytes]) -> Any:
    """``value`` with every non-empty tuple of floats replaced by
    ``("<f8", len)``; the run's little-endian float64 bytes go to
    ``runs``, in traversal order.

    The ``repr`` of a float costs about a microsecond, and sampled node
    traces carry hundreds of levels per spec; packing the bytes is
    several times cheaper and still tells ``-0.0`` from ``0.0`` and
    every ulp.  Any other value is left to ``repr``.
    """
    if type(value) is TraceSpec:
        return (
            "TraceSpec",
            value.kind,
            _key_skeleton(value.params, runs),
            _key_skeleton(value.parts, runs),
        )
    if type(value) is not tuple or not value:
        return value
    types = set(map(type, value))
    if tuple in types or TraceSpec in types:
        return tuple([_key_skeleton(v, runs) for v in value])
    if types <= _FLOAT_TYPES:
        runs.append(struct.pack(f"<{len(value)}d", *value))
        return ("<f8", len(value))
    return value


#: Fingerprints of live specs by identity, each with the key prefix it
#: was computed under.  Kept off the instance: outcomes pickle their
#: spec, so an instance attribute would change cached payload bytes.
#: An entry leaves the memo when its spec is garbage collected.
_FINGERPRINTS: dict[int, tuple[str, str]] = {}


@dataclass(frozen=True)
class TraceSpec:
    """A load trace described declaratively.

    ``kind`` selects a builder from
    :data:`repro.scenarios.factories.TRACE_BUILDERS` (``"diurnal"``,
    ``"constant"``, ``"ramp"``, ``"sampled"``, ``"step"``, ``"spike"``,
    ``"mmpp"``, ``"replay"``) and ``params``
    are its keyword arguments; ``kind="concat"`` plays ``parts`` back to
    back instead.
    """

    kind: str
    params: Params = ()
    parts: tuple["TraceSpec", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", freeze_params(self.params))
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.kind == "concat":
            if not self.parts:
                raise ValueError("a concat trace needs at least one part")
        elif self.parts:
            raise ValueError("only concat traces take parts")

    # -- convenience constructors for the shapes the paper uses ---------

    @classmethod
    def diurnal(cls, duration_s: float, *, seed: int = 11, **extra) -> "TraceSpec":
        """The compressed diurnal day (Figure 1's load pattern)."""
        return cls("diurnal", {"duration_s": duration_s, "seed": seed, **extra})

    @classmethod
    def constant(cls, level: float, duration_s: float) -> "TraceSpec":
        """A steady load level (calibration and the Figure 2/3 sweeps)."""
        return cls("constant", {"level": level, "duration_s": duration_s})

    @classmethod
    def ramp(
        cls,
        start_level: float,
        end_level: float,
        ramp_s: float,
        *,
        lead_s: float = 0.0,
        hold_s: float = 0.0,
    ) -> "TraceSpec":
        """A linear load ramp (Figure 8)."""
        return cls(
            "ramp",
            {
                "start_level": start_level,
                "end_level": end_level,
                "ramp_s": ramp_s,
                "lead_s": lead_s,
                "hold_s": hold_s,
            },
        )

    @classmethod
    def sampled(
        cls, levels: Iterable[float], *, interval_s: float = 1.0
    ) -> "TraceSpec":
        """Per-interval load levels, as a load balancer emits them."""
        return cls(
            "sampled",
            {"levels": tuple(float(v) for v in levels), "interval_s": interval_s},
        )

    @classmethod
    def concat(cls, *parts: "TraceSpec") -> "TraceSpec":
        """Several traces played back to back (warm-up then ramp)."""
        return cls("concat", (), tuple(parts))

    @classmethod
    def mmpp(
        cls,
        levels: Iterable[float],
        mean_dwell_s: Iterable[float],
        duration_s: float,
        *,
        seed: int = 0,
        start_state: int = 0,
    ) -> "TraceSpec":
        """Bursty Markov-modulated load (flash crowds, retry storms)."""
        return cls(
            "mmpp",
            {
                "levels": tuple(float(v) for v in levels),
                "mean_dwell_s": tuple(float(d) for d in mean_dwell_s),
                "duration_s": duration_s,
                "seed": seed,
                "start_state": start_state,
            },
        )

    @classmethod
    def replay(
        cls,
        times_s: Iterable[float],
        levels: Iterable[float],
        *,
        interp: str = "previous",
        duration_s: float | None = None,
    ) -> "TraceSpec":
        """Replay of a recorded ``(time, level)`` series."""
        params = {
            "times_s": tuple(float(t) for t in times_s),
            "levels": tuple(float(v) for v in levels),
            "interp": interp,
        }
        if duration_s is not None:
            params["duration_s"] = duration_s
        return cls("replay", params)

    def build(self):
        """The concrete :class:`~repro.loadgen.traces.LoadTrace`."""
        from repro.scenarios import factories

        return factories.build_trace(self)

    # -- cost hints for the batch scheduler -----------------------------

    def duration_s(self) -> float:
        """Trace length in seconds, straight from the parameters where
        possible (no trace construction for the common kinds)."""
        params = dict(self.params)
        try:
            if self.kind == "concat":
                return sum(part.duration_s() for part in self.parts)
            if self.kind in ("diurnal", "constant", "spike", "mmpp"):
                return float(params["duration_s"])
            if self.kind == "replay":
                if "duration_s" in params:
                    return float(params["duration_s"])
                last = float(params["times_s"][-1])
                if last > 0:  # else the builder applies its 1 s floor
                    return last
            if self.kind == "ramp":
                return (
                    float(params.get("lead_s", 0.0))
                    + float(params["ramp_s"])
                    + float(params.get("hold_s", 0.0))
                )
            if self.kind == "sampled":
                return len(params["levels"]) * float(params.get("interval_s", 1.0))
            if self.kind == "step":
                return sum(float(d) for d, _ in params["steps"])
        except KeyError:
            pass  # parameter left to the builder's default
        return float(self.build().duration_s)

    def mean_level(self) -> float:
        """Mean offered-load fraction over the trace -- a *scheduling
        hint* (arrivals scale execution cost), not a simulation input."""
        params = dict(self.params)
        try:
            if self.kind == "concat":
                total = self.duration_s()
                if total <= 0:
                    return 0.0
                return (
                    sum(p.mean_level() * p.duration_s() for p in self.parts)
                    / total
                )
            if self.kind == "constant":
                return float(params["level"])
            if self.kind == "sampled":
                levels = params["levels"]
                return float(sum(levels) / len(levels))
            if self.kind == "ramp":
                lead = float(params.get("lead_s", 0.0))
                hold = float(params.get("hold_s", 0.0))
                ramp = float(params["ramp_s"])
                start = float(params["start_level"])
                end = float(params["end_level"])
                area = start * lead + 0.5 * (start + end) * ramp + end * hold
                return area / (lead + ramp + hold)
            if self.kind == "step":
                steps = params["steps"]
                total = sum(float(d) for d, _ in steps)
                return sum(float(d) * float(level) for d, level in steps) / total
        except KeyError:
            pass  # parameter left to the builder's default
        # Diurnal, default-parameter and exotic kinds: sample the built
        # trace coarsely.
        trace = self.build()
        duration = trace.duration_s
        n = 32
        return float(
            sum(trace.load_at((i + 0.5) * duration / n) for i in range(n)) / n
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulator run, described entirely in plain data.

    Parameters
    ----------
    workload:
        Workload registry key (``"memcached"`` or ``"websearch"``).
    trace:
        The offered-load trace to play.
    manager:
        Manager-factory key in
        :data:`repro.scenarios.factories.MANAGER_FACTORIES` (e.g.
        ``"hipster-in"``, ``"static-config"``).
    manager_params / workload_params / engine:
        Keyword overrides for the manager factory, the workload's
        :meth:`~repro.workloads.base.LatencyCriticalWorkload.with_overrides`,
        and :class:`~repro.sim.engine.EngineConfig`.
    platform:
        Platform registry key (currently only ``"juno_r1"``).
    batch_jobs:
        Batch job set key (``"spec:<program>"`` or ``"spec-mix"``) for
        collocation scenarios; ``None`` runs the workload alone.
    cpuidle:
        ``None`` uses the engine default (CPUidle disabled, dodging the
        Juno perf bug); ``True``/``False`` forces a kernel config.
    seed:
        The run seed; the run is a pure function of the spec.
    n_intervals:
        Optional cap on simulated intervals (defaults to the trace
        length).
    label:
        Free-form display name; excluded from the fingerprint.
    """

    workload: str
    trace: TraceSpec
    manager: str
    manager_params: Params = ()
    workload_params: Params = ()
    platform: str = "juno_r1"
    batch_jobs: str | None = None
    cpuidle: bool | None = None
    engine: Params = ()
    seed: int = DEFAULT_SEED
    n_intervals: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        n = self.n_intervals
        # bool is an int subclass, but True is not an interval count.
        if n is not None and (type(n) is not int or n <= 0):
            raise ValueError(
                f"n_intervals must be None or a positive int, got {n!r}"
            )
        for attr in ("manager_params", "workload_params", "engine"):
            object.__setattr__(self, attr, freeze_params(getattr(self, attr)))
        from repro.scenarios import factories

        factories.validate_keys(self)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------

    def with_(self, **changes: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced (params re-frozen)."""
        return replace(self, **changes)

    def sweep(self, **grid: Iterable[Any]) -> tuple["ScenarioSpec", ...]:
        """Expand a field grid into the cartesian product of specs.

        Each keyword names a spec field and supplies an iterable of
        values; the product is taken in the keyword order given, last
        field fastest::

            spec.sweep(seed=range(3), manager=["octopus-man", "hipster-in"])

        yields six specs.  Figure modules use this to *declare* their
        grids instead of imperatively looping over runs.
        """
        if not grid:
            return (self,)
        names = list(grid)
        unknown = set(names) - {f.name for f in fields(self)}
        if unknown:
            raise ValueError(f"unknown spec fields in sweep: {sorted(unknown)}")
        combos = itertools.product(*(list(grid[name]) for name in names))
        return tuple(self.with_(**dict(zip(names, combo))) for combo in combos)

    def fingerprint(self) -> str:
        """Stable cache key: every run-affecting field plus the kernel
        and schema versions (so code changes invalidate stale results).

        The key is prefixed with :func:`cache_key_prefix`, so the cache
        can *see* which format generation a stored record belongs to --
        that is what lets manifest compaction reclaim records stranded
        by a version bump (the versions also fold into the hash, so the
        prefix adds legibility, not uniqueness).

        The hash covers the ``repr`` of the payload with every float run
        (e.g. sampled trace levels) keyed by its length, followed by the
        runs' raw bytes (see :func:`_key_skeleton`).  A spec is
        immutable, so the key is computed once per instance (and again
        only if the format versions change); re-dispatching the same
        spec objects then costs a dict lookup."""
        prefix = cache_key_prefix()
        memo = _FINGERPRINTS.get(id(self))
        if memo is not None and memo[0] == prefix:
            return memo[1]
        runs: list[bytes] = []
        payload = (
            SCHEMA_VERSION,
            KERNEL_VERSION,
            self.workload,
            _key_skeleton(self.workload_params, runs),
            _key_skeleton(self.trace, runs),
            self.manager,
            _key_skeleton(self.manager_params, runs),
            self.platform,
            self.batch_jobs,
            self.cpuidle,
            _key_skeleton(self.engine, runs),
            self.seed,
            self.n_intervals,
        )
        digest = hashlib.sha256(repr(payload).encode())
        for run in runs:
            digest.update(run)
        key = prefix + digest.hexdigest()[:24]
        if memo is None:
            weakref.finalize(self, _FINGERPRINTS.pop, id(self), None)
        _FINGERPRINTS[id(self)] = (prefix, key)
        return key

    def describe(self) -> str:
        """Short human-readable identity for logs and progress output."""
        return self.label or (
            f"{self.workload}/{self.manager}/{self.trace.kind}/seed={self.seed}"
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self) -> "ScenarioOutcome":
        """Execute the scenario in this process.

        Builds every component fresh from the factories (so repeated runs
        and cross-process runs are identical) and returns the result plus
        the manager statistics that only live on the manager instance.
        """
        from repro.scenarios import factories
        from repro.sim.engine import run_experiment

        platform = factories.build_platform(self.platform)
        workload = factories.build_workload(self.workload, self.workload_params)
        manager = factories.build_manager(self.manager, platform, self.manager_params)
        result = run_experiment(
            platform,
            workload,
            self.trace.build(),
            manager,
            batch_jobs=factories.build_batch_jobs(self.batch_jobs),
            kernel=factories.build_kernel(self.cpuidle),
            engine_config=factories.build_engine_config(self.engine),
            seed=self.seed,
            n_intervals=self.n_intervals,
        )
        return ScenarioOutcome(
            spec=self,
            result=result,
            manager_stats=freeze_params(manager.scenario_stats()),
        )


@dataclass(frozen=True)
class ScenarioOutcome:
    """What a scenario run produced: the result and manager statistics.

    Managers are rebuilt inside workers, so any state a figure needs from
    the manager instance (e.g. HipsterIn's ``phase_switches``) must be
    extracted before the worker exits; it travels here as plain pairs.
    """

    spec: ScenarioSpec
    result: ExperimentResult
    manager_stats: Params = ()

    def stat(self, name: str, default: Any = None) -> Any:
        """A manager statistic by name (e.g. ``"phase_switches"``)."""
        return thaw_params(self.manager_stats).get(name, default)
