"""Experiment harness: one module per table and figure of the paper.

Every module exposes ``run(*, quick=False, seed=..., runner=None)``
returning a result object with a ``render()`` method (plain-text
tables/sparklines) plus the derived quantities its tests and benchmarks
assert on.  ``quick=True`` compresses run lengths for CI; the full
setting matches the paper's.

Modules declare their runs as :class:`~repro.scenarios.spec.ScenarioSpec`
grids (via :data:`repro.scenarios.DEFAULT_REGISTRY`) and execute them
with :func:`repro.fleet.run_specs` on the ``runner`` -- a
:class:`~repro.sim.batch.BatchRunner` -- so a shared runner
parallelizes every figure's scenario batch over worker processes and
caches results across invocations.  Passing
``runner=None`` gets a serial, uncached run with identical output.
Seeds, run lengths and learning-phase durations come from
:mod:`repro.scenarios` (``DEFAULT_SEED``, ``learning_seconds`` and the
registry's diurnal-day lengths).

=================================================  =======================
module                                             paper artifact
=================================================  =======================
:mod:`~repro.experiments.fig01_diurnal_power`      Figure 1
:mod:`~repro.experiments.fig02_efficiency`         Figures 2a/2b/2c
:mod:`~repro.experiments.fig03_cross_state_machine`  Figure 3
:mod:`~repro.experiments.fig05_heuristic_traces`   Figure 5
:mod:`~repro.experiments.fig06_hipsterin_memcached`  Figure 6
:mod:`~repro.experiments.fig07_hipsterin_websearch`  Figure 7
:mod:`~repro.experiments.fig08_load_ramp`          Figure 8
:mod:`~repro.experiments.fig09_learning_time`      Figure 9
:mod:`~repro.experiments.fig10_bucket_size`        Figure 10
:mod:`~repro.experiments.fig11_collocation`        Figure 11
:mod:`~repro.experiments.table1_workloads`         Table 1
:mod:`~repro.experiments.table2_characterization`  Table 2
:mod:`~repro.experiments.table3_summary`           Table 3
:mod:`~repro.experiments.calibration`              Table 1 methodology
:mod:`~repro.experiments.fleet_scale`              fleet scaling (beyond
                                                   the paper: power/QoS
                                                   vs node count)
=================================================  =======================
"""

from repro.experiments import (
    calibration,
    fig01_diurnal_power,
    fig02_efficiency,
    fig03_cross_state_machine,
    fig05_heuristic_traces,
    fig06_hipsterin_memcached,
    fig07_hipsterin_websearch,
    fig08_load_ramp,
    fig09_learning_time,
    fig10_bucket_size,
    fig11_collocation,
    fleet_scale,
    table1_workloads,
    table2_characterization,
    table3_summary,
)

#: CLI-facing registry: command name -> experiment module.
EXPERIMENTS = {
    "fig1": fig01_diurnal_power,
    "fig2": fig02_efficiency,
    "fig3": fig03_cross_state_machine,
    "fig5": fig05_heuristic_traces,
    "fig6": fig06_hipsterin_memcached,
    "fig7": fig07_hipsterin_websearch,
    "fig8": fig08_load_ramp,
    "fig9": fig09_learning_time,
    "fig10": fig10_bucket_size,
    "fig11": fig11_collocation,
    "fleet-scale": fleet_scale,
    "table1": table1_workloads,
    "table2": table2_characterization,
    "table3": table3_summary,
}

__all__ = ["EXPERIMENTS", "calibration"]
