"""Simulation substrate: queueing, contention, records, engine, batching."""

from repro.sim.batch import BatchRunner, DiskCache
from repro.sim.contention import ClusterPressure, ContentionModel, aggregate_pressure
from repro.sim.engine import (
    DEFAULT_MAX_BACKLOG_S,
    DEFAULT_MIGRATION_PENALTY_S,
    EngineConfig,
    IntervalSimulator,
    run_experiment,
)
from repro.sim.latency import (
    LatencySample,
    qos_guarantee,
    qos_tardiness,
    summarize_latencies,
)
from repro.sim.queueing import DispatchQueue, IntervalQueueStats
from repro.sim.records import (
    STORAGE_VERSION,
    ExperimentResult,
    IntervalObservation,
    ObservationTable,
)

__all__ = [
    "BatchRunner",
    "ClusterPressure",
    "ContentionModel",
    "DEFAULT_MAX_BACKLOG_S",
    "DEFAULT_MIGRATION_PENALTY_S",
    "DiskCache",
    "DispatchQueue",
    "EngineConfig",
    "ExperimentResult",
    "IntervalObservation",
    "ObservationTable",
    "STORAGE_VERSION",
    "IntervalQueueStats",
    "IntervalSimulator",
    "LatencySample",
    "aggregate_pressure",
    "qos_guarantee",
    "qos_tardiness",
    "run_experiment",
    "summarize_latencies",
]
