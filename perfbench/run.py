"""The repository's end-to-end benchmark.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper-quick --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3          # all three workloads

Workloads: ``paper-quick``, ``fleet-faults``, ``warm-replay`` (see
:mod:`perfbench.workloads` and ``perfbench/README.md``).  A run

1. times set-up (import, runner, pool) in fresh interpreters,
2. repeats the workload in *passes* until ``--seconds`` is used up --
   each pass builds a fresh runner, so every pass does the same work --
   and times each pass from the first call into the program to the end
   of ``runner.close()``,
3. checks every pass's output against its reference (:mod:`perfbench.check`),
4. prints every metric by name with its unit, then one JSON line:
   ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (means over passes; the
median of the set-up samples).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians), plus the tracing
overhead; the spans of the last traced pass are written as Chrome
trace-event JSON to ``.perfbench/trace-<workload>-seed<seed>.json``.

Everything the benchmark writes goes to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import signal
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"

#: Set-up samples per run (after one unmeasured warm-up sample); even,
#: so that the samples split evenly over the 2 CPUs they rotate across.
SETUP_SAMPLES = 8

#: Seconds a busy process stays on one CPU before :class:`CpuRotation`
#: moves it to the next.
ROTATION_PERIOD_S = 0.2

#: Runner counters read before and after each timed section.
_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "memory_hits",
    "disk_hits",
    "specs_dispatched",
    "chunks_dispatched",
    "pool_spawns",
    "worker_crashes",
    "spec_timeouts",
    "chunk_retries",
    "pool_rebuilds",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed check)."""


def _bootstrap() -> None:
    """Import the program from this checkout's ``src/`` and nothing else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    # Default settings only: a stray REPRO_* override (chaos injection,
    # watchdog knobs) would change what is measured.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    WORK.mkdir(exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")


def _cpu_s() -> float:
    """User+sys CPU of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _reset_peak_rss() -> None:
    """Lower this process's peak-RSS mark to its current RSS, so that
    :func:`_peak_rss_mb` covers only what runs from here on."""
    Path("/proc/self/clear_refs").write_text("5")


def _peak_rss_mb() -> float:
    """Peak RSS of this process since the last :func:`_reset_peak_rss`."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc/self/status")


def _in_child(fn, *args):
    """``fn(*args)`` in a forked child process; returns its result."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_send_result, args=(send, fn, args))
    child.start()
    send.close()
    try:
        ok, value = receive.recv()
    except EOFError:
        ok, value = False, "child process died"
    finally:
        receive.close()
        child.join()
    if not ok:
        raise BenchError(value)
    return value


def _send_result(send, fn, args) -> None:
    try:
        send.send((True, fn(*args)))
    except Exception as err:
        send.send((False, f"{type(err).__name__}: {err}"))


def _fill_warm_cache(seed: int, document: dict, cache_dir: Path) -> str:
    """Run ``paper-quick`` and ``fleet-faults`` cold into ``cache_dir``,
    check both outputs, and return the digest warm-replay must match."""
    from repro.sim.batch import BatchRunner

    from perfbench import check, workloads

    shutil.rmtree(cache_dir, ignore_errors=True)
    with BatchRunner(jobs=2, cache_dir=cache_dir) as runner:
        cold = [
            workloads.paper_quick(seed, runner),
            workloads.fleet_faults(document, runner),
        ]
    for part, text in zip(("paper-quick", "fleet-faults"), cold):
        if check.sha256(text) != check.reference_digest(part, seed, ROOT):
            raise BenchError(f"warm-replay: cold {part} output is wrong")
    return check.sha256("".join(cold))


@dataclass
class Pass:
    """One timed repetition of a workload."""

    traced: bool
    wall_s: float
    cpu_s: float
    requests: int
    intervals: int
    failed: int
    output: str = field(repr=False)
    counters: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


class CpuRotation:
    """Moves the busy threads of a pass across the usable CPUs every
    :data:`ROTATION_PERIOD_S` while the block runs.

    On a shared host each CPU has its own neighbours: one may run a pass
    twice as fast as the other for minutes at a time.  Left alone, the
    scheduler's placement would decide a serial run, and a pooled pass
    would wait on whichever worker sat on the slow CPU.  Rotating makes
    every pass sample all CPUs alike.  Targets are process ids: this
    process (``0``) for serial passes, the pool's workers (forked before
    the block starts) for pooled ones, a serial set-up probe for set-up.
    The rotation runs from an interval timer's signal handler, so no
    thread exists while workers fork.
    """

    def __init__(self, targets: list[int]):
        self.targets = targets
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.active = len(self.cpus) > 1 and bool(targets)
        self._previous_handler = None

    def _place(self, cpus: set[int] | None = None) -> None:
        """Put target ``k`` on CPU ``turn + k`` (or all on ``cpus``)."""
        n = len(self.cpus)
        for offset, target in enumerate(self.targets):
            try:
                os.sched_setaffinity(
                    target, cpus or {self.cpus[(self.turn + offset) % n]}
                )
            except ProcessLookupError:  # a worker that already exited
                pass

    def _tick(self, signum, frame) -> None:
        self.turn += 1
        self._place()

    def __enter__(self) -> "CpuRotation":
        if self.active:
            self._place()
            self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.siginterrupt(signal.SIGALRM, False)  # restart syscalls
            signal.setitimer(signal.ITIMER_REAL, ROTATION_PERIOD_S, ROTATION_PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
            self._place(set(self.cpus))


class Workload:
    """A named workload at one seed: per-pass runner set-up and body."""

    def __init__(self, name: str, seed: int, recorder):
        from perfbench import workloads

        self.name = name
        self.seed = seed
        self.recorder = recorder
        self.jobs = workloads.JOBS[name]
        self.warm_cache = WORK / "warm-cache"
        self.document: dict | None = None  # the fleet-faults pack
        self.expected: str | None = None

    def body(self, runner, span) -> str:
        """The timed work of one pass; returns the workload's output."""
        from perfbench import workloads

        if self.name == "paper-quick":
            return workloads.paper_quick(self.seed, runner, span)
        if self.name == "fleet-faults":
            return workloads.fleet_faults(self.document, runner, span)
        return workloads.warm_replay(self.seed, self.document, runner, span)

    # -- preparation (untimed) -----------------------------------------

    def prepare(self) -> None:
        """Resolve the reference digest; fill the warm cache for
        ``warm-replay`` and check the cold outputs it will re-serve.

        The work runs in a child process, so what it leaves in memory
        does not count towards the passes' ``peak_rss_mb``."""
        from perfbench import check, workloads

        if self.name in workloads.USES_PACKS:
            self.document = workloads.fleet_faults_document(self.seed)
        if self.name == "warm-replay":
            self.expected = _in_child(
                _fill_warm_cache, self.seed, self.document, self.warm_cache
            )
        else:
            self.expected = _in_child(check.reference_digest, self.name, self.seed, ROOT)

    def runner(self):
        """A fresh runner for one pass (its set-up is not timed)."""
        from repro.sim.batch import BatchRunner

        from perfbench.workloads import warmup_specs

        if self.name == "paper-quick":
            return BatchRunner(jobs=1)
        if self.name == "warm-replay":
            return BatchRunner(jobs=1, cache_dir=self.warm_cache)
        cache = WORK / "fleet-cache"
        shutil.rmtree(cache, ignore_errors=True)
        runner = BatchRunner(jobs=self.jobs, cache_dir=cache)
        runner.run(warmup_specs())  # fork and warm the pool
        return runner

    # -- one pass -------------------------------------------------------

    def run_pass(self, traced: bool) -> Pass:
        from perfbench.metrics import layer_metrics
        from perfbench.probes import LayerProbes, Tally
        from perfbench.workloads import no_span

        rec = self.recorder
        tally = Tally()
        with tally, LayerProbes(rec) if traced else nullcontext():
            runner = self.runner()
            rec.reset()
            rec.clear_spill()
            before = {name: getattr(runner, name) for name in _COUNTERS}
            tally.requests = tally.intervals = tally.failed = 0
            span = rec.span if traced else no_span
            gc.collect()
            targets = (
                [0]  # this process
                if self.jobs == 1
                else sorted(p.pid for p in multiprocessing.active_children())
            )
            with CpuRotation(targets):
                cpu0 = _cpu_s()
                t0 = time.perf_counter()
                try:
                    with span(f"workload.{self.name}"):
                        output = self.body(runner, span)
                finally:
                    runner.close()
                wall = time.perf_counter() - t0
                cpu = _cpu_s() - cpu0
        counters = {name: getattr(runner, name) - before[name] for name in _COUNTERS}
        counters["retries"] = (
            counters["worker_crashes"]
            + counters["spec_timeouts"]
            + counters["chunk_retries"]
            + counters["pool_rebuilds"]
        )
        counters["requests"] = tally.requests
        counters["failed"] = tally.failed
        result = Pass(
            traced=traced,
            wall_s=wall,
            cpu_s=cpu,
            requests=tally.requests,
            intervals=tally.intervals,
            failed=tally.failed,
            output=output,
            counters=counters,
        )
        if traced:
            worker_rss_kb = rec.collect_workers()
            result.layers = layer_metrics(rec, counters, self.jobs, worker_rss_kb)
        return result

    # -- set-up samples -------------------------------------------------

    def setup_samples(self) -> list[float]:
        """Set-up seconds from fresh interpreters (first one discarded:
        it may pay for writing bytecode caches)."""
        from perfbench.workloads import USES_PACKS

        # A pooled probe is not rotated: the workers it forks would
        # inherit its one-CPU mask, where users' and the passes' workers
        # each get a CPU of their own.
        serial = self.jobs == 1
        samples = []
        probe_cache = WORK / "probe-cache"
        env = dict(os.environ)
        for _ in range(SETUP_SAMPLES + 1):
            shutil.rmtree(probe_cache, ignore_errors=True)
            cache = str(probe_cache) if self.name in USES_PACKS else "-"
            command = [
                sys.executable,
                str(ROOT / "perfbench" / "setup_probe.py"),
                self.name,
                cache,
            ]
            with subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE
            ) as proc:
                try:
                    with CpuRotation([proc.pid] if serial else []):
                        stdout, _ = proc.communicate(timeout=120)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise
            if proc.returncode:
                raise subprocess.CalledProcessError(proc.returncode, command)
            samples.append(json.loads(stdout.splitlines()[-1])["setup_s"])
        shutil.rmtree(probe_cache, ignore_errors=True)
        return samples[1:]


def measure(workload: Workload, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; return its result record."""
    from perfbench import check
    from perfbench.metrics import END_TO_END, PER_LAYER, median_metrics

    setup = [] if trace else workload.setup_samples()
    workload.prepare()
    gc.collect()
    # Peak RSS covers the passes only: not the cache fill or reference
    # run of prepare(), nor a workload that ran before under ``all``.
    _reset_peak_rss()
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        # Traced runs alternate: untraced, traced, untraced, ...
        passes.append(workload.run_pass(trace and len(passes) % 2 == 1))
        elapsed = time.perf_counter() - start
        # A traced run needs two traced passes to check that counts repeat.
        enough = sum(p.traced for p in passes) >= 2 if trace else True
        # Stop when one more pass of average length would overrun.
        if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    bad = check.mismatches([p.output for p in passes], workload.expected)
    errors = [f"pass {i}: output differs from the reference" for i in bad]
    failed = sum(p.failed for p in passes)
    if failed:
        errors.append(f"{failed} spec request(s) failed")
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}

    if trace:
        from perfbench.metrics import EXACT_COUNTS

        for p in traced[1:]:
            moved = [
                n for n in EXACT_COUNTS if p.layers[n] != traced[0].layers[n]
            ]
            if moved:
                errors.append(f"traced counts differ between passes: {moved}")
        values = median_metrics([p.layers for p in traced])
        values["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in traced)
            / statistics.median(p.wall_s for p in untraced)
            - 1.0
        )
        trace_path = WORK / f"trace-{workload.name}-seed{workload.seed}.json"
        trace_path.write_text(json.dumps(workload.recorder.chrome_trace()))
    else:
        # Per-pass means (totals over passes), not medians: on a shared
        # host, interference comes in regimes lasting seconds, and the
        # mean weighs them by time where the median flips between them.
        timed = sum(p.wall_s for p in untraced)
        values = {
            "wall_s": timed / len(untraced),
            "cpu_s": sum(p.cpu_s for p in untraced) / len(untraced),
            "intervals_per_s": sum(p.intervals for p in untraced) / timed,
            "specs_per_s": sum(p.requests for p in untraced) / timed,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": _peak_rss_mb(),
        }
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": trace,
        "errors": errors,
        "attempted": sum(p.requests for p in passes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
        "samples": {
            "passes": len(untraced),
            "traced_passes": len(traced),
            "setup": len(setup),
            "pass_wall_s": [round(p.wall_s, 6) for p in untraced],
            "traced_pass_wall_s": [round(p.wall_s, 6) for p in traced],
            "setup_s": [round(s, 6) for s in setup],
            "requests_per_pass": passes[0].requests,
            "intervals_per_pass": passes[0].intervals,
        },
    }


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def _report(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    samples = record["samples"]
    print(
        f"  ({samples['passes']} untraced + {samples['traced_passes']} traced "
        f"pass(es), {samples['setup']} set-up sample(s), "
        f"{samples['requests_per_pass']} spec requests per pass)"
    )
    for error in record["errors"]:
        print(f"  ERROR: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=["paper-quick", "fleet-faults", "warm-replay", "all"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        _bootstrap()
    except (BenchError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    from repro.errors import ReproError

    from perfbench.metrics import WORKLOADS
    from perfbench.spans import Recorder

    spill = WORK / "spill"
    spill.mkdir(exist_ok=True)
    recorder = Recorder(spill)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    records = []
    for name in names:
        try:
            record = measure(
                Workload(name, args.seed, recorder), args.seconds, bool(args.trace)
            )
        except (BenchError, ReproError, subprocess.CalledProcessError) as err:
            record = {
                "workload": name,
                "errors": [f"{type(err).__name__}: {err}"],
                "attempted": 1,
                "failed": 0,
                "metrics": {},
            }
        record["environment"] = env
        (WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
        if "samples" in record:
            _report(record)
        else:
            print(f"perfbench {name}: {record['errors'][0]}", file=sys.stderr)
        records.append(record)
    shutil.rmtree(WORK / "fleet-cache", ignore_errors=True)
    shutil.rmtree(WORK / "warm-cache", ignore_errors=True)
    print("environment " + json.dumps(env, sort_keys=True))

    correct = not any(record["errors"] for record in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{record['workload']}.{name}": metric
            for record in records
            for name, metric in record["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(record["attempted"] for record in records),
                "failed": sum(record["failed"] for record in records),
                "metrics": metrics if correct else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
