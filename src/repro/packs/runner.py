"""Execute compiled packs with pack-level sweep planning.

``run_pack`` runs the **whole** pack -- its scenario entries and every
fleet entry's node specs -- as one :func:`~repro.fleet.aggregate.
run_specs` batch, so the runner's cost-aware longest-job-first
scheduler and two-tier cache plan across the pack instead of entry by
entry, and a node spec shared by several entries runs once.  Because
every item is a frozen spec, a pack's results are byte-identical
serial or ``--jobs N``, and repeated runs hit the outcome cache.

Packs run to completion even when entries fail: a poison spec, a
watchdog timeout or an engine exception lands in its entry's outcome
slot as the :class:`~repro.errors.ExecutionError` itself, and
``rows()``/``summary()``/``render()`` carry a per-entry ``status``
(``ok`` / ``failed: <error type>``) so a sweep with one broken point
still reports the other N-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.errors import ExecutionError
from repro.fleet.aggregate import run_specs
from repro.packs.compiler import CompiledPack, compile_pack
from repro.scenarios.spec import ScenarioOutcome


@dataclass(frozen=True)
class PackResult:
    """All of a pack's outcomes, aligned with ``pack.items``.

    An outcome slot holds the entry's ``ScenarioOutcome`` /
    ``FleetOutcome``, or the :class:`~repro.errors.ExecutionError` that
    definitively failed it.
    """

    pack: CompiledPack
    outcomes: tuple[Any, ...]  #: outcome | ExecutionError per item

    def __post_init__(self) -> None:
        if len(self.outcomes) != len(self.pack.items):
            raise ValueError("outcomes must align with pack items")

    def failures(self) -> list[tuple[str, ExecutionError]]:
        """The failed entries, as ``(key, error)`` pairs."""
        return [
            (item.key, outcome)
            for item, outcome in zip(self.pack.items, self.outcomes)
            if isinstance(outcome, ExecutionError)
        ]

    @property
    def all_failed(self) -> bool:
        """True when not a single entry produced an outcome."""
        return bool(self.outcomes) and len(self.failures()) == len(
            self.outcomes
        )

    def rows(self) -> list[tuple[str, str, float, float, float, str]]:
        """``(key, kind, qos, mean_power_w, energy_j, status)`` rows.

        Failed entries report NaN metrics and a ``failed: <error
        type>`` status; successes report ``ok``.
        """
        rows = []
        nan = float("nan")
        for item, outcome in zip(self.pack.items, self.outcomes):
            if isinstance(outcome, ExecutionError):
                kind = "fleet" if item.is_fleet else "scenario"
                status = f"failed: {type(outcome).__name__}"
                rows.append((item.key, kind, nan, nan, nan, status))
            elif isinstance(outcome, ScenarioOutcome):
                result = outcome.result
                rows.append(
                    (
                        item.key,
                        "scenario",
                        result.qos_guarantee(),
                        result.mean_power_w(),
                        result.total_energy_j(),
                        "ok",
                    )
                )
            else:
                rows.append(
                    (
                        item.key,
                        f"fleet({outcome.n_nodes})",
                        outcome.fleet_qos_guarantee(),
                        outcome.total_mean_power_w(),
                        outcome.total_energy_j(),
                        "ok",
                    )
                )
        return rows

    def resilience_reports(self) -> list[tuple[str, Any]]:
        """``(key, ResilienceReport)`` for every fleet entry with fault
        clauses, in entry order (failed entries have none)."""
        reports = []
        for item, outcome in zip(self.pack.items, self.outcomes):
            if not item.is_fleet or isinstance(outcome, ExecutionError):
                continue
            report = outcome.resilience_report()
            if report is not None:
                reports.append((item.key, report))
        return reports

    def summary(self) -> dict[str, Any]:
        """A JSON-ready digest (the CI artifact format).

        Failed entries carry ``null`` metrics, their ``status`` names
        the error type, and the top level counts ``failed`` entries so
        CI can gate on partial success without parsing rows.  Fleet
        entries with fault clauses additionally carry a ``resilience``
        mapping (blast radius, degradation depth, time-to-recover; see
        :class:`~repro.fleet.resilience.ResilienceReport`).
        """
        reports = dict(self.resilience_reports())
        items = []
        for key, kind, qos, power, energy, status in self.rows():
            failed = status != "ok"
            entry = {
                "key": key,
                "kind": kind,
                "status": status,
                "qos_guarantee": None if failed else round(qos, 6),
                "mean_power_w": None if failed else round(power, 6),
                "total_energy_j": None if failed else round(energy, 3),
            }
            if key in reports:
                entry["resilience"] = reports[key].as_dict()
            items.append(entry)
        return {
            "pack": self.pack.name,
            "source": self.pack.source,
            "failed": len(self.failures()),
            "items": items,
        }

    def render(self) -> str:
        """An ASCII report in the repo's house table style."""
        from repro.experiments.reporting import ascii_table

        table_rows = [
            [
                key,
                kind,
                "-" if math.isnan(qos) else f"{qos * 100:.1f}%",
                "-" if math.isnan(power) else f"{power:.2f}W",
                "-" if math.isnan(energy) else f"{energy:.0f}J",
                status,
            ]
            for key, kind, qos, power, energy, status in self.rows()
        ]
        header = f"Pack -- {self.pack.name} ({len(self.pack.items)} runs)"
        if self.pack.description:
            header += f": {self.pack.description}"
        lines = [
            header,
            ascii_table(
                ["run", "kind", "QoS", "power", "energy", "status"],
                table_rows,
            ),
        ]
        for key, report in self.resilience_reports():
            lines.append(f"{key}:")
            lines.extend(f"  {line}" for line in report.render_lines())
        return "\n".join(lines)


def run_pack(
    pack: Any, *, runner: Any = None, quick: bool | None = None
) -> PackResult:
    """Compile (if needed) and execute a pack.

    ``pack`` may be a path, a raw document mapping, a parsed
    :class:`~repro.packs.model.Pack` or an already-compiled
    :class:`CompiledPack` (``quick`` only applies when compiling).
    A runner created here is closed before returning; a caller-supplied
    ``runner`` is left open.

    One failing entry does not abort the pack: its
    :class:`~repro.errors.ExecutionError` is stored in its outcome slot
    (see :meth:`PackResult.rows`) and every other entry still runs.
    Interrupts (:class:`~repro.errors.RunInterruptedError`) do abort --
    they mean *stop*, not *skip*.
    """
    compiled = (
        pack
        if isinstance(pack, CompiledPack)
        else compile_pack(pack, quick=quick)
    )
    outcomes = run_specs(
        [item.spec for item in compiled.items], runner, on_failure="yield"
    )
    return PackResult(pack=compiled, outcomes=tuple(outcomes))


__all__ = ["PackResult", "run_pack"]
