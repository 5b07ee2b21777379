#!/usr/bin/env python
"""Execution-chaos smoke: the full CLI run must survive injected faults.

Five in-process invocations of the acceptance command
(``all --quick --seed S``):

1. **golden** -- fault-free, serial: the reference stdout bytes.
2. **crash/hang chaos** -- parallel, with deterministic worker crashes
   (and a sprinkle of hangs kept short by a tightened watchdog) injected
   by :mod:`repro.sim.chaos`.  Must exit 0 with stdout byte-identical
   to the golden run.
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

A JSON summary (the CI artifact) records per-run exit codes, wall
times, fault markers and the byte-identity verdicts.  Exits non-zero
on any violation.

Standalone (no install needed)::

    python tools/chaos_smoke.py --seed 0 --jobs 2 --output chaos-smoke.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Supervisor overrides for the chaos runs: plenty of rebuild headroom
#: (rate-based crashes can strike many chunks) and a watchdog tight
#: enough that an injected hang costs seconds, not an hour.  Legit
#: chunks in ``all --quick`` finish in well under a second, so a 15 s
#: deadline has an order of magnitude of CI-jitter margin.
_CHAOS_ENV = {
    "REPRO_MAX_POOL_REBUILDS": "10000",
    "REPRO_TIMEOUT_FLOOR_S": "15",
    "REPRO_TIMEOUT_PER_COST_S": "0",
    "REPRO_BACKOFF_CAP_S": "0.2",
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


def _with_env(env: dict[str, str]):
    """Context manager: apply env overrides, restore on exit."""
    from contextlib import contextmanager

    @contextmanager
    def _ctx():
        saved = {k: os.environ.get(k) for k in env}
        os.environ.update(env)
        try:
            yield
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v

    return _ctx()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--output", default="chaos-smoke.json")
    args = parser.parse_args(argv)

    from repro.sim import chaos

    base_cmd = ["all", "--quick", "--seed", str(args.seed)]
    summary: dict = {"seed": args.seed, "jobs": args.jobs, "runs": []}
    failures: list[str] = []

    def record(name: str, code: int, out: bytes, err: str, wall: float,
               golden: bytes | None) -> bytes:
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
        if code != 0:
            failures.append(f"{name}: exit code {code}")
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
        with _with_env(_CHAOS_ENV), chaos.active_config(config):
            code, out, err, wall = _cli_run(
                base_cmd + ["--jobs", str(args.jobs)]
            )
        record("crash-hang-chaos", code, out, err, wall, golden)
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
