"""Reproduction of *Hipster: Hybrid Task Manager for Latency-Critical
Cloud Workloads* (Nishtala, Carpenter, Petrucci, Martorell -- HPCA 2017).

The package is organized as the paper's system plus everything it runs on:

* :mod:`repro.hardware` -- a calibrated model of the ARM Juno R1 board;
* :mod:`repro.workloads` -- Memcached / Web-Search service models and
  SPEC CPU2006 batch program models;
* :mod:`repro.loadgen` -- diurnal / ramp / spike load traces;
* :mod:`repro.sim` -- the queueing substrate, interval co-simulator and
  the parallel :class:`~repro.sim.batch.BatchRunner`; a run's QoS
  guarantee, tardiness and energy are methods of its
  :class:`~repro.sim.records.ExperimentResult`;
* :mod:`repro.scenarios` -- declarative scenario specs and the registry;
* :mod:`repro.packs` -- declarative YAML/JSON scenario packs;
* :mod:`repro.fleet` -- multi-node cluster simulation (FleetSpec, load
  balancers, fleet-level aggregation);
* :mod:`repro.core` -- Hipster itself (heuristic mapper + Q-learning);
* :mod:`repro.policies` -- Octopus-Man and static baselines;
* :mod:`repro.experiments` -- one module per paper table and figure.

Quickstart (the stable facade lives in :mod:`repro.api`)::

    from repro.api import run_scenario

    outcome = run_scenario("diurnal-policy", workload="memcached",
                           manager="hipster-in", quick=True)
    print(outcome.result.qos_guarantee(), outcome.result.mean_power_w())
"""

from repro.api import open_runner, run_pack, run_scenario, sweep
from repro.core import (
    Hipster,
    HipsterHeuristicPolicy,
    HipsterParams,
    Variant,
    hipster_co,
    hipster_in,
)
from repro.fleet import FleetOutcome, FleetSpec
from repro.hardware import Configuration, juno_r1
from repro.errors import (
    PackError,
    ReproError,
    UnknownNameError,
    UnknownParamError,
)
from repro.loadgen import (
    ConcatTrace,
    ConstantTrace,
    DiurnalTrace,
    LoadTrace,
    MMPPTrace,
    RampTrace,
    ReplayTrace,
    SampledTrace,
    SpikeTrace,
    StepTrace,
)
from repro.policies import (
    OctopusMan,
    StaticPolicy,
    TaskManager,
    static_all_big,
    static_all_small,
)
from repro.scenarios import (
    DEFAULT_REGISTRY,
    ScenarioOutcome,
    ScenarioSpec,
    TraceSpec,
)
from repro.sim import BatchRunner, ExperimentResult, IntervalSimulator, run_experiment
from repro.workloads import (
    BatchJobSet,
    BatchProgram,
    LatencyCriticalWorkload,
    memcached,
    spec_job_set,
    spec_mix,
    websearch,
)

__version__ = "3.0.0"

__all__ = [
    "BatchJobSet",
    "BatchRunner",
    "DEFAULT_REGISTRY",
    "ScenarioOutcome",
    "ScenarioSpec",
    "TraceSpec",
    "ConcatTrace",
    "BatchProgram",
    "Configuration",
    "ConstantTrace",
    "DiurnalTrace",
    "ExperimentResult",
    "FleetOutcome",
    "FleetSpec",
    "Hipster",
    "HipsterHeuristicPolicy",
    "HipsterParams",
    "IntervalSimulator",
    "LatencyCriticalWorkload",
    "LoadTrace",
    "MMPPTrace",
    "OctopusMan",
    "PackError",
    "RampTrace",
    "ReplayTrace",
    "ReproError",
    "SampledTrace",
    "SpikeTrace",
    "StaticPolicy",
    "StepTrace",
    "TaskManager",
    "UnknownNameError",
    "UnknownParamError",
    "Variant",
    "hipster_co",
    "hipster_in",
    "juno_r1",
    "memcached",
    "open_runner",
    "run_experiment",
    "run_pack",
    "run_scenario",
    "sweep",
    "spec_job_set",
    "spec_mix",
    "static_all_big",
    "static_all_small",
    "websearch",
    "__version__",
]
