#!/usr/bin/env python
"""Execution-chaos smoke: the full CLI run must survive injected faults.

Seven in-process invocations of the acceptance command
(``all --quick --seed S``):

1. **golden** -- fault-free, serial: the reference stdout bytes.
2. **crash/hang chaos** -- parallel, with deterministic worker crashes
   (and a sprinkle of hangs kept short by a tightened watchdog) injected
   by :mod:`repro.sim.chaos`.  The tightened retry policy is handed to
   the CLI's runner.  Must exit 0 with stdout byte-identical to the
   golden run, and must not degrade to serial: the policy's rebuild
   headroom keeps the pool alive, so a degraded run means the policy
   never reached the runner.
3. **cache populate** -- fault-free, parallel, against a fresh on-disk
   cache (the corruption victim).
4. **corrupted cache** -- a manifest pack record is scribbled and the
   pack's tail is truncated (:func:`repro.sim.chaos.corrupt_cache`);
   the rerun must quarantine the damage, recompute, exit 0 and stay
   byte-identical.
5. **recovered cache** -- one more rerun over the same cache: the
   recovery run's appends must all be reachable, so it must stay
   byte-identical, report ``0 miss(es)`` on its ``[cache]`` line and
   add no quarantine entries.
6. **interrupted** -- parallel, against a fresh cache, stopped by a
   SIGINT that this process raises at itself right after the pool
   delivers its first outcome (deterministic: the CLI's handler runs
   before ``raise_signal`` returns).  Must exit 130 and name the cache
   directory on stderr.
7. **rerun after interrupt** -- the same command on the same cache:
   must exit 0, stay byte-identical, serve at least one disk hit and
   leave only the pack (and no quarantine) in the cache directory.

A JSON summary (the CI artifact) records per-run exit codes, wall
times, fault markers, the chaos run's retry policy and the
byte-identity verdicts.  Exits non-zero
on any violation.

Standalone (no install needed)::

    python tools/chaos_smoke.py --seed 0 --jobs 2 --output chaos-smoke.json
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import re
import signal
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Retry-policy fields for the chaos run: plenty of rebuild headroom
#: (rate-based crashes can strike many chunks) and a watchdog tight
#: enough that an injected hang costs seconds, not an hour.  Legit
#: chunks in ``all --quick`` finish in well under a second, so a 15 s
#: deadline has an order of magnitude of CI-jitter margin.
_CHAOS_POLICY = {
    "max_pool_rebuilds": 10000,
    "timeout_floor_s": 15.0,
    "timeout_per_cost_s": 0.0,
    "backoff_cap_s": 0.2,
}


def _cli_run(argv: list[str]) -> tuple[int, bytes, str, float]:
    """One in-process CLI invocation: (exit, stdout bytes, stderr, wall)."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    wall = time.perf_counter() - t0
    return code, out.getvalue().encode(), err.getvalue(), wall


@contextmanager
def _runner_policy(policy):
    """Hand ``policy`` to every runner built without one (the CLI's),
    restoring the runner's own default on exit."""
    from repro.sim.batch import BatchRunner

    real = BatchRunner.__post_init__

    def post_init(self):
        if self.retry_policy is None:
            self.retry_policy = policy
        real(self)

    BatchRunner.__post_init__ = post_init
    try:
        yield
    finally:
        BatchRunner.__post_init__ = real


@contextmanager
def _sigint_after_first_delivery():
    """Raise SIGINT at this process once the pool has delivered its
    first outcome, as a Ctrl-C would; the CLI's handler turns it into a
    stop request.  Yields a list that holds one entry once it fired."""
    from repro.sim.supervise import PoolSupervisor

    real = PoolSupervisor._deliver
    fired: list[bool] = []

    def deliver(self, work, results):
        real(self, work, results)
        if not fired:
            fired.append(True)
            signal.raise_signal(signal.SIGINT)

    PoolSupervisor._deliver = deliver
    try:
        yield fired
    finally:
        PoolSupervisor._deliver = real


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--output", default="chaos-smoke.json")
    args = parser.parse_args(argv)

    from repro.cli import EXIT_INTERRUPTED
    from repro.sim import chaos
    from repro.sim.supervise import RetryPolicy

    base_cmd = ["all", "--quick", "--seed", str(args.seed)]
    summary: dict = {"seed": args.seed, "jobs": args.jobs, "runs": []}
    failures: list[str] = []

    def record(name: str, code: int, out: bytes, err: str, wall: float,
               golden: bytes | None, expected_code: int = 0) -> bytes:
        identical = None if golden is None else out == golden
        summary["runs"].append(
            {
                "name": name,
                "exit_code": code,
                "wall_s": round(wall, 2),
                "stdout_bytes": len(out),
                "identical_to_golden": identical,
                "stderr_tail": err.strip().splitlines()[-6:],
            }
        )
        if code != expected_code:
            failures.append(
                f"{name}: exit code {code}, expected {expected_code}"
            )
        if identical is False:
            failures.append(f"{name}: stdout differs from golden run")
        print(f"[chaos-smoke] {name}: exit={code} wall={wall:.1f}s "
              f"stdout={len(out)}B identical={identical}")
        return out

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        tmp_path = Path(tmp)

        code, out, err, wall = _cli_run(base_cmd)
        golden = record("golden-serial", code, out, err, wall, None)

        # -- crash/hang chaos, parallel ---------------------------------
        state_dir = tmp_path / "chaos-state"
        config = chaos.ChaosConfig(
            seed=args.seed,
            state_dir=str(state_dir),
            crash_rate=24,   # a handful of worker crashes across the run
            hang_rate=150,   # and (usually) one or two watchdog trips
            hang_s=120.0,    # far past the 15 s deadline, cut by SIGKILL
        )
        policy = RetryPolicy(**_CHAOS_POLICY)
        summary["chaos_retry_policy"] = dataclasses.asdict(policy)
        with _runner_policy(policy), chaos.active_config(config):
            code, out, err, wall = _cli_run(
                base_cmd + ["--jobs", str(args.jobs)]
            )
        record("crash-hang-chaos", code, out, err, wall, golden)
        degraded = [
            line
            for line in err.splitlines()
            if line.startswith("[fault]") and "degraded to serial" in line
        ]
        if degraded:
            failures.append(
                "crash-hang-chaos: the pool degraded to serial, so the "
                f"run's retry policy did not reach its runner: {degraded}"
            )
        markers = chaos.fired_markers(state_dir)
        summary["fired_faults"] = markers
        if not markers:
            failures.append(
                "crash-hang-chaos: no fault fired (rates too low for "
                "this seed -- the run proved nothing)"
            )

        # -- cache corruption -------------------------------------------
        cache_dir = tmp_path / "cache"
        code, out, err, wall = _cli_run(
            base_cmd + ["--jobs", str(args.jobs), "--cache-dir", str(cache_dir)]
        )
        record("cache-populate", code, out, err, wall, golden)
        report = chaos.corrupt_cache(cache_dir, args.seed)
        summary["corruption"] = report.actions
        if not report:
            failures.append("corrupt_cache: nothing to corrupt (empty cache?)")
        code, out, err, wall = _cli_run(
            base_cmd + ["--jobs", str(args.jobs), "--cache-dir", str(cache_dir)]
        )
        record("corrupted-cache-rerun", code, out, err, wall, golden)
        quarantined = sorted(
            p.name for p in (cache_dir / "quarantine").glob("*")
        )
        summary["quarantined"] = quarantined

        # -- recovered cache: everything the recovery appended is served
        code, out, err, wall = _cli_run(
            base_cmd + ["--jobs", str(args.jobs), "--cache-dir", str(cache_dir)]
        )
        record("recovered-cache-rerun", code, out, err, wall, golden)
        cache_lines = [
            line for line in err.splitlines() if line.startswith("[cache]")
        ]
        if not any(" 0 miss(es)" in line for line in cache_lines):
            failures.append(
                f"recovered-cache-rerun: expected 0 misses, got {cache_lines}"
            )
        requarantined = sorted(
            p.name for p in (cache_dir / "quarantine").glob("*")
        )
        if requarantined != quarantined:
            failures.append(
                "recovered-cache-rerun: quarantined "
                f"{sorted(set(requarantined) - set(quarantined))}"
            )

        # -- interrupt, then rerun the same command on the same cache --
        resume_dir = tmp_path / "resume-cache"
        resume_cmd = base_cmd + [
            "--jobs", str(args.jobs), "--cache-dir", str(resume_dir)
        ]
        with _sigint_after_first_delivery() as fired:
            code, out, err, wall = _cli_run(resume_cmd)
        record("interrupted", code, out, err, wall, None,
               expected_code=EXIT_INTERRUPTED)
        if not fired:
            failures.append("interrupted: the pool delivered nothing")
        if f"cached in {resume_dir}" not in err:
            failures.append("interrupted: stderr does not name the cache")
        code, out, err, wall = _cli_run(resume_cmd)
        record("rerun-after-interrupt", code, out, err, wall, golden)
        disk_hits = [
            int(match.group(1))
            for match in re.finditer(r"^\[cache\].*?(\d+) disk", err, re.M)
        ]
        if not disk_hits or disk_hits[0] < 1:
            failures.append(
                f"rerun-after-interrupt: expected disk hits, got {disk_hits}"
            )
        left = sorted(p.name for p in resume_dir.iterdir())
        summary["resume_cache_files"] = left
        if left != ["manifest.pack"]:
            failures.append(f"rerun-after-interrupt: cache dir holds {left}")

    summary["ok"] = not failures
    summary["failures"] = failures
    Path(args.output).write_text(json.dumps(summary, indent=2) + "\n")
    print(f"[chaos-smoke] wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"[chaos-smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"[chaos-smoke] OK: {len(summary['runs'])} runs, "
          f"{len(markers)} fault(s) fired, "
          f"{len(quarantined)} quarantined file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
