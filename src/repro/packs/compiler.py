"""Lower parsed packs into frozen, fingerprinted run specs.

The compiler is the bridge between the declarative document layer
(:mod:`repro.packs.model`) and the execution substrate: every entry
lowers to ordinary :class:`~repro.scenarios.spec.ScenarioSpec` /
:class:`~repro.fleet.spec.FleetSpec` objects, so packs inherit the
whole determinism and caching story for free -- same document, same
fingerprints, byte-identical results serial or ``--jobs N``.

Lowering rules:

* ``family`` entries call :data:`~repro.scenarios.registry.DEFAULT_REGISTRY`
  with the merged ``defaults.params`` + entry ``params`` + sweep
  assignment; the registry's unknown-name / unknown-kwarg errors are
  re-raised as :class:`~repro.errors.PackError` carrying the entry path.
* ``scenario`` / ``fleet`` entries construct the spec dataclass
  directly; field names are validated against the dataclass (with a
  "did you mean" suggestion) and the ``trace`` mapping lowers to a
  :class:`~repro.scenarios.spec.TraceSpec` (``kind`` plus keyword
  params; ``concat`` takes a ``parts`` list of nested traces).
* ``sweep`` expands as a cartesian product over its **sorted** keys, so
  the variant order -- and therefore replica seeds and item keys -- is
  independent of document key order.
* ``weight: n`` expands to *n* replicas; replica ``k > 0`` reseeds the
  spec with ``seed + SEED_STRIDE * k``, keeping replicas distinct runs
  while replica 0 stays byte-identical to the unweighted entry.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.errors import PackError, ReproError, suggest
from repro.packs.model import Pack, PackEntry, load_pack, parse_pack
from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.scenarios.spec import Params, ScenarioSpec, TraceSpec, freeze_params

#: Replica seed stride (the 10000th prime): far apart in seed space so
#: replica streams never overlap the small hand-picked seeds packs use.
SEED_STRIDE = 104729

#: Spec fields an inline entry may not set (constructed objects only).
_EXCLUDED_FIELDS = frozenset({"platform"})


def _spec_fields(cls) -> tuple[str, ...]:
    return tuple(
        f.name
        for f in dataclasses.fields(cls)
        if f.name not in _EXCLUDED_FIELDS
    )


def _lower_trace(value: Any, where: str) -> TraceSpec:
    """Lower a trace mapping (``kind`` + params, nested for concat)."""
    if isinstance(value, TraceSpec):
        return value
    if not isinstance(value, Mapping):
        raise PackError(
            f"expected a trace mapping, got {type(value).__name__}",
            path=where,
        )
    fields = dict(value)
    kind = fields.pop("kind", None)
    if kind is None:
        raise PackError("a trace needs a 'kind'", path=where)
    from repro.scenarios.factories import TRACE_BUILDERS

    if kind != "concat" and kind not in TRACE_BUILDERS:
        choices = sorted(TRACE_BUILDERS) + ["concat"]
        clause = f"unknown trace kind {kind!r}; valid choices: " + ", ".join(
            choices
        )
        best = suggest(str(kind), choices)
        if best is not None:
            clause += f" (did you mean {best!r}?)"
        raise PackError(clause, path=f"{where}.kind")
    if kind == "concat":
        parts = fields.pop("parts", None)
        if fields:
            raise PackError(
                "a concat trace only takes 'parts'", path=where
            )
        if not isinstance(parts, (list, tuple)) or not parts:
            raise PackError(
                "a concat trace needs a non-empty 'parts' list", path=where
            )
        lowered = tuple(
            _lower_trace(part, f"{where}.parts[{i}]")
            for i, part in enumerate(parts)
        )
        return TraceSpec.concat(*lowered)
    try:
        return TraceSpec(kind, {k: _freeze_value(v) for k, v in fields.items()})
    except (ReproError, ValueError, TypeError) as err:
        raise PackError(str(err), path=where) from err


def _freeze_value(value: Any) -> Any:
    """YAML lists become tuples so they can live inside frozen params."""
    if isinstance(value, list):
        return tuple(_freeze_value(v) for v in value)
    return value


@dataclass(frozen=True)
class PackItem:
    """One compiled run: a unique key plus its frozen spec."""

    key: str  #: unique within the pack (entry label + variant + replica)
    spec: Any  #: :class:`ScenarioSpec` or :class:`FleetSpec`
    entry_index: int
    variant: Params  #: the sweep assignment that produced this item
    replica: int  #: 0-based; replica > 0 runs under a strided seed

    @property
    def is_fleet(self) -> bool:
        return not isinstance(self.spec, ScenarioSpec)


@dataclass(frozen=True)
class CompiledPack:
    """A fully lowered pack: every item is a frozen, buildable spec."""

    name: str
    description: str
    source: str
    items: tuple[PackItem, ...]

    def specs(self) -> tuple[Any, ...]:
        return tuple(item.spec for item in self.items)

    def fingerprints(self) -> tuple[str, ...]:
        """Per-item cache keys, in item order."""
        return tuple(item.spec.fingerprint() for item in self.items)

    def validate_buildable(self) -> None:
        """Probe every item past the frozen-spec layer: build its trace
        (catching bad trace params that only surface at build time) and
        lower its fault schedule.  Raises :class:`PackError` naming the
        offending item; returns ``None`` when the whole pack is sound.
        """
        for item in self.items:
            try:
                item.spec.trace.build()
                if item.is_fleet:
                    item.spec.fault_schedule()
            except (ReproError, KeyError, TypeError, ValueError) as err:
                raise PackError(
                    str(err), path=f"{self.name}:{item.key}"
                ) from err


def _build_family_spec(
    entry: PackEntry, assignment: Mapping[str, Any], quick: bool | None
) -> Any:
    params = dict(entry.params)
    params.update(assignment)
    if quick is not None:
        accepted = DEFAULT_REGISTRY.family_params(str(entry.body))
        if accepted is None or "quick" in accepted:
            params["quick"] = quick
    try:
        return DEFAULT_REGISTRY.build(str(entry.body), **params)
    except (ReproError, KeyError, TypeError, ValueError) as err:
        raise PackError(str(err), path=entry.where) from err


def _build_inline_spec(
    entry: PackEntry, assignment: Mapping[str, Any]
) -> Any:
    from repro.fleet.spec import FleetSpec

    cls = ScenarioSpec if entry.kind == "scenario" else FleetSpec
    accepted = _spec_fields(cls)
    fields = dict(entry.body)
    fields.update(assignment)
    unknown = sorted(set(fields) - set(accepted))
    if unknown:
        parts = []
        for name in unknown:
            clause = f"unknown field {name!r}"
            best = suggest(name, accepted)
            if best is not None:
                clause += f" (did you mean {best!r}?)"
            parts.append(clause)
        raise PackError(
            f"{'; '.join(parts)}; accepted fields: {', '.join(accepted)}",
            path=f"{entry.where}.{entry.kind}",
        )
    if "trace" not in fields:
        raise PackError(
            f"a {entry.kind} entry needs a 'trace'",
            path=f"{entry.where}.{entry.kind}",
        )
    fields["trace"] = _lower_trace(
        fields["trace"], f"{entry.where}.{entry.kind}.trace"
    )
    if entry.label is not None:
        fields.setdefault("label", entry.label)
    try:
        return cls(**fields)
    except (ReproError, KeyError, TypeError, ValueError) as err:
        raise PackError(str(err), path=f"{entry.where}.{entry.kind}") from err


def _entry_key(entry: PackEntry, spec: Any) -> str:
    if entry.label is not None:
        return entry.label
    if entry.kind == "family":
        return str(entry.body)
    return getattr(spec, "label", None) or spec.describe()


def _compile_entry(
    entry: PackEntry, quick: bool | None
) -> list[PackItem]:
    sweep_names = [name for name, _ in entry.sweep]
    sweep_values = [values for _, values in entry.sweep]
    items: list[PackItem] = []
    for combo in itertools.product(*sweep_values):
        assignment = dict(zip(sweep_names, combo))
        if entry.kind == "family":
            spec = _build_family_spec(entry, assignment, quick)
            if entry.label is not None:
                spec = spec.with_(label=entry.label)
        else:
            spec = _build_inline_spec(entry, assignment)
        base_key = _entry_key(entry, spec)
        variant = freeze_params(assignment)
        if assignment:
            desc = ",".join(f"{k}={v}" for k, v in sorted(assignment.items()))
            base_key = f"{base_key}[{desc}]"
        for replica in range(entry.weight):
            run_spec = spec
            if replica > 0:
                run_spec = spec.with_(seed=spec.seed + SEED_STRIDE * replica)
            key = base_key if replica == 0 else f"{base_key}#r{replica}"
            items.append(
                PackItem(
                    key=key,
                    spec=run_spec,
                    entry_index=entry.index,
                    variant=variant,
                    replica=replica,
                )
            )
    return items


def ensure_pack(pack: Any) -> Pack:
    """Coerce a path / document mapping / :class:`Pack` into a Pack."""
    if isinstance(pack, Pack):
        return pack
    if isinstance(pack, (str, Path)):
        return load_pack(pack)
    return parse_pack(pack)


def compile_pack(pack: Any, *, quick: bool | None = None) -> CompiledPack:
    """Lower a pack into frozen specs (also its validation pass).

    ``quick`` (when not ``None``) overrides the quick flag of every
    family entry whose factory accepts one -- the CLI's ``--quick``
    switch.  Inline entries spell their durations out explicitly and
    are left untouched.
    """
    import repro.fleet  # noqa: F401  (registers the fleet-* families)

    parsed = ensure_pack(pack)
    items: list[PackItem] = []
    seen: dict[str, int] = {}
    for entry in parsed.entries:
        for item in _compile_entry(entry, quick):
            key = item.key
            if key in seen:
                seen[key] += 1
                key = f"{key}~{seen[item.key]}"
            else:
                seen[key] = 1
            items.append(dataclasses.replace(item, key=key))
    return CompiledPack(
        name=parsed.name,
        description=parsed.description,
        source=parsed.source,
        items=tuple(items),
    )


__all__ = [
    "CompiledPack",
    "PackItem",
    "SEED_STRIDE",
    "compile_pack",
    "ensure_pack",
]
