"""Figure 11: HipsterCo collocating Web-Search with SPEC CPU2006 programs.

For each of the twelve SPEC programs, Web-Search shares the machine with
one batch-program instance per leftover core, under three managers:

* the static mapping (Web-Search on the two big cores, batch on the four
  small cores) -- the normalization baseline;
* Octopus-Man in collocation mode;
* HipsterCo.

Reported per program: QoS guarantee, aggregate batch IPS and energy, the
last two normalized to static.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.reporting import ascii_table
from repro.experiments.runner import DEFAULT_SEED
from repro.fleet import run_specs
from repro.scenarios import DEFAULT_REGISTRY
from repro.sim.batch import BatchRunner
from repro.workloads.spec import SPEC_CPU2006


@dataclass(frozen=True)
class CollocationRow:
    """One SPEC program under one manager, normalized to static."""

    program: str
    manager: str
    qos_guarantee_pct: float
    ips_normalized: float
    energy_normalized: float


@dataclass(frozen=True)
class Fig11Result:
    """All programs x managers, plus the mean row the paper reports."""

    rows: tuple[CollocationRow, ...]

    def rows_for(self, manager: str) -> tuple[CollocationRow, ...]:
        return tuple(r for r in self.rows if r.manager == manager)

    def mean_ips(self, manager: str) -> float:
        return float(np.mean([r.ips_normalized for r in self.rows_for(manager)]))

    def mean_energy(self, manager: str) -> float:
        return float(np.mean([r.energy_normalized for r in self.rows_for(manager)]))

    def mean_qos(self, manager: str) -> float:
        return float(np.mean([r.qos_guarantee_pct for r in self.rows_for(manager)]))

    def render(self) -> str:
        body = [
            [r.program, r.manager, f"{r.qos_guarantee_pct:.1f}%",
             f"{r.ips_normalized:.2f}", f"{r.energy_normalized:.2f}"]
            for r in self.rows
        ]
        for manager in ("octopus-man", "hipster-co"):
            body.append(
                [
                    "MEAN",
                    manager,
                    f"{self.mean_qos(manager):.1f}%",
                    f"{self.mean_ips(manager):.2f}",
                    f"{self.mean_energy(manager):.2f}",
                ]
            )
        return ascii_table(
            ["program", "manager", "QoS", "IPS (norm)", "energy (norm)"],
            body,
            title="Figure 11 -- Web-Search collocated with SPEC CPU2006",
        )


#: Managers compared against the static baseline, with the spec-level
#: collocation parameters each needs.
_MANAGER_PARAMS = {
    "octopus-man": {"collocate_batch": True},
    "hipster-co": None,  # the Co variant collocates by design
}


def run(
    *,
    quick: bool = False,
    seed: int = DEFAULT_SEED,
    programs: tuple[str, ...] | None = None,
    runner: BatchRunner | None = None,
) -> Fig11Result:
    """Regenerate Figure 11 (optionally for a subset of programs).

    The (program x manager) grid -- baseline included -- is one declared
    batch, so all collocation runs can fan out over workers.
    """
    names = programs or tuple(p.name for p in SPEC_CPU2006)
    if quick and programs is None:
        names = ("calculix", "lbm", "libquantum")

    specs = []
    for name in names:
        specs.append(
            DEFAULT_REGISTRY.build(
                "collocation",
                manager="static-big",
                program=name,
                quick=quick,
                seed=seed,
                manager_params={"collocate_batch": True},
            )
        )
        specs.extend(
            DEFAULT_REGISTRY.build(
                "collocation",
                manager=manager,
                program=name,
                quick=quick,
                seed=seed,
                manager_params=params,
            )
            for manager, params in _MANAGER_PARAMS.items()
        )

    results = (o.result for o in run_specs(specs, runner))
    rows: list[CollocationRow] = []
    for name in names:
        static = next(results)
        base_ips = static.batch_mean_ips()
        base_energy = static.total_energy_j()
        for manager_name in _MANAGER_PARAMS:
            result = next(results)
            rows.append(
                CollocationRow(
                    program=name,
                    manager=manager_name,
                    qos_guarantee_pct=result.qos_guarantee() * 100.0,
                    ips_normalized=result.batch_mean_ips() / base_ips,
                    energy_normalized=result.total_energy_j() / base_energy,
                )
            )
    return Fig11Result(rows=tuple(rows))


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(run(quick=True).render())
