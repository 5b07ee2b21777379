"""The benchmark's metric catalogue and the per-layer arithmetic.

Every end-to-end metric is reported for every workload by an untraced
run.  Every per-layer metric comes from a traced run and names the
end-to-end metric it should move and on which workload(s) -- the
prediction a change to that layer is judged against.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

WORKLOADS = ("paper-quick", "fleet-faults", "warm-replay")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    moves: str = ""  # end-to-end metric this layer metric should move
    on: tuple[str, ...] = ()  # ...on these workloads


END_TO_END = (
    Metric("wall_s", "s", "lower"),
    Metric("cpu_s", "s", "lower"),
    Metric("intervals_per_s", "1/s", "higher"),
    Metric("specs_per_s", "1/s", "higher"),
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_WR, _FF, _PQ = "warm-replay", "fleet-faults", "paper-quick"

PER_LAYER = (
    Metric("packs.compile_s", "s", "lower", "wall_s", (_FF,)),
    Metric("fleet.expand_s", "s", "lower", "wall_s", (_WR, _FF)),
    Metric("fleet.fault_lower_s", "s", "lower", "wall_s", (_WR, _FF)),
    Metric("fleet.split_s", "s", "lower", "wall_s", (_WR, _FF)),
    Metric("fleet.aggregate_s", "s", "lower", "wall_s", (_WR,)),
    Metric("scenarios.fingerprint_s", "s", "lower", "specs_per_s", (_WR,)),
    Metric("scenarios.fingerprint_calls", "count", "lower", "specs_per_s", (_WR,)),
    Metric("batch.lookups", "count", "lower", "specs_per_s", (_WR, _PQ)),
    Metric("batch.memory_hits", "count", "higher", "specs_per_s", (_WR, _PQ)),
    Metric("batch.disk_hits", "count", "higher", "specs_per_s", (_WR, _PQ)),
    Metric("batch.misses", "count", "lower", "specs_per_s", (_WR, _PQ)),
    Metric("batch.hit_ratio", "ratio", "higher", "specs_per_s", (_WR, _PQ)),
    Metric("batch.failed_frac", "ratio", "lower", "specs_per_s", (_FF, _WR, _PQ)),
    Metric("batch.disk_load_s", "s", "lower", "wall_s", (_WR,)),
    Metric("batch.disk_load_mb", "MB", "lower", "wall_s", (_WR,)),
    Metric("batch.decode_mb_per_s", "MB/s", "higher", "wall_s", (_WR,)),
    Metric("batch.disk_store_s", "s", "lower", "wall_s", (_FF,)),
    Metric("batch.disk_store_mb", "MB", "lower", "wall_s", (_FF,)),
    Metric("batch.close_s", "s", "lower", "wall_s", (_FF,)),
    Metric("pool.spawns", "count", "lower", "wall_s", (_FF,)),
    Metric("pool.chunks", "count", "lower", "wall_s", (_FF,)),
    Metric("pool.specs_dispatched", "count", "lower", "wall_s", (_FF,)),
    Metric("pool.retries", "count", "lower", "wall_s", (_FF,)),
    Metric("pool.busy_frac", "ratio", "higher", "wall_s", (_FF,)),
    Metric("pool.wait_s", "s", "lower", "cpu_s", (_FF,)),
    Metric("pool.worker_peak_rss_mb", "MB", "lower", "peak_rss_mb", (_FF,)),
    Metric("engine.busy_s", "s", "lower", "wall_s", (_PQ, _FF)),
    Metric("engine.specs", "count", "lower", "wall_s", (_PQ, _FF)),
    Metric("engine.intervals", "count", "lower", "wall_s", (_PQ, _FF)),
    Metric("engine.intervals_per_s", "1/s", "higher", "intervals_per_s", (_PQ, _FF)),
    Metric("engine.spec_p50_ms", "ms", "lower", "wall_s", (_PQ, _FF)),
    Metric("engine.spec_tail_ms", "ms", "lower", "wall_s", (_PQ, _FF)),
    # The percentile engine.spec_tail_ms is taken at; its sample count
    # is engine.specs.
    Metric("engine.spec_tail_pct", "%", "higher", "wall_s", (_PQ, _FF)),
    Metric("engine.manager_s", "s", "lower", "wall_s", (_PQ,)),
    Metric("engine.manager_calls", "count", "lower", "wall_s", (_PQ,)),
    Metric("engine.queue_s", "s", "lower", "wall_s", (_PQ, _FF)),
    Metric("engine.power_s", "s", "lower", "wall_s", (_PQ, _FF)),
    Metric("engine.scalar_intervals", "count", "lower", "wall_s", (_PQ,)),
    Metric("engine.epoch_intervals", "count", "higher", "wall_s", (_PQ,)),
    Metric("engine.epoch_coverage", "ratio", "higher", "wall_s", (_PQ,)),
    Metric("render.s", "s", "lower", "wall_s", (_WR,)),
    Metric("trace.overhead_frac", "ratio", "lower", "wall_s", WORKLOADS),
)

#: Per-layer metrics that are counts: a traced run checks that they
#: repeat exactly from one traced pass to the next.
EXACT_COUNTS = tuple(m.name for m in PER_LAYER if m.unit == "count")

#: Percentiles tried, highest first, for the tail of a timing sample.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n_samples: int) -> float:
    """The highest percentile with at least ten samples beyond it
    (50 when there are fewer than twenty samples)."""
    for pct in _TAIL_LADDER:
        if n_samples * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 50.0


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def layer_metrics(recorder, runner_counters: dict, jobs: int, worker_rss_kb: int) -> dict:
    """Per-layer values of one traced pass (``trace.overhead_frac`` is
    added by the caller, which times the untraced passes)."""
    rec = recorder
    counts = rec.counts
    lookups = runner_counters["cache_hits"] + runner_counters["cache_misses"]
    busy = rec.inclusive_s("engine.spec")
    intervals = counts.get("engine.intervals", 0)
    durations_ms = [d * 1e3 for d in rec.span_durations("engine.spec")]
    tail_pct = tail_percentile(len(durations_ms))
    scalar = counts.get("engine.scalar_intervals", 0)
    epoch = counts.get("engine.epoch_intervals", 0)
    load_s = rec.inclusive_s("batch.disk_load")
    load_mb = counts.get("batch.disk_load_bytes", 0) / 1e6
    pool_wall = counts.get("pool.events.wall_s", 0.0)
    requests = runner_counters["requests"]
    return {
        "packs.compile_s": rec.inclusive_s("packs.compile"),
        "fleet.expand_s": rec.self_s("fleet.expand"),
        "fleet.fault_lower_s": rec.self_s("fleet.fault_lower"),
        "fleet.split_s": rec.self_s("fleet.split"),
        "fleet.aggregate_s": rec.self_s("fleet.aggregate"),
        "scenarios.fingerprint_s": rec.self_s("scenarios.fingerprint"),
        "scenarios.fingerprint_calls": rec.entries("scenarios.fingerprint"),
        "batch.lookups": lookups,
        "batch.memory_hits": runner_counters["memory_hits"],
        "batch.disk_hits": runner_counters["disk_hits"],
        "batch.misses": runner_counters["cache_misses"],
        "batch.hit_ratio": runner_counters["cache_hits"] / lookups if lookups else 0.0,
        "batch.failed_frac": runner_counters["failed"] / requests if requests else 0.0,
        "batch.disk_load_s": load_s,
        "batch.disk_load_mb": load_mb,
        "batch.decode_mb_per_s": load_mb / load_s if load_s > 0 else 0.0,
        "batch.disk_store_s": rec.inclusive_s("batch.disk_store"),
        "batch.disk_store_mb": counts.get("batch.disk_store_bytes", 0) / 1e6,
        "batch.close_s": rec.inclusive_s("batch.close"),
        "pool.spawns": runner_counters["pool_spawns"],
        "pool.chunks": runner_counters["chunks_dispatched"],
        "pool.specs_dispatched": runner_counters["specs_dispatched"],
        "pool.retries": runner_counters["retries"],
        "pool.busy_frac": (
            counts.get("pool.worker_busy_s", 0.0) / (jobs * pool_wall)
            if pool_wall > 0
            else 0.0
        ),
        "pool.wait_s": rec.self_s("pool.events"),
        "pool.worker_peak_rss_mb": worker_rss_kb / 1024.0,
        "engine.busy_s": busy,
        "engine.specs": len(durations_ms),
        "engine.intervals": intervals,
        "engine.intervals_per_s": intervals / busy if busy > 0 else 0.0,
        "engine.spec_p50_ms": percentile(durations_ms, 50.0) if durations_ms else 0.0,
        "engine.spec_tail_ms": (
            percentile(durations_ms, tail_pct) if durations_ms else 0.0
        ),
        "engine.spec_tail_pct": tail_pct,
        "engine.manager_s": rec.self_s("engine.manager"),
        "engine.manager_calls": rec.entries("engine.manager"),
        "engine.queue_s": rec.self_s("engine.queue"),
        "engine.power_s": rec.self_s("engine.power"),
        "engine.scalar_intervals": scalar,
        "engine.epoch_intervals": epoch,
        "engine.epoch_coverage": epoch / (scalar + epoch) if scalar + epoch else 0.0,
        "render.s": rec.inclusive_s("render"),
    }


def median_metrics(samples: list[dict]) -> dict:
    """Metric-wise median over passes."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
