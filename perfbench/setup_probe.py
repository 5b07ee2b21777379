"""One set-up sample, in a fresh interpreter: import what a workload
uses, build its runner and, for a pooled workload, spawn and warm the
pool.  Prints ``{"setup_s": ...}``, timed from the first line of this
file, so interpreter start-up is the only thing left out.

Usage (from the checkout root)::

    python3 perfbench/setup_probe.py <workload> <cache-dir or ->
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    workload, cache_dir = sys.argv[1], sys.argv[2]
    from repro.sim.batch import BatchRunner

    from perfbench.workloads import JOBS, USES_EXPERIMENTS, USES_PACKS, warmup_specs

    if workload in USES_EXPERIMENTS:
        import repro.experiments  # noqa: F401
    if workload in USES_PACKS:
        import repro.fleet  # noqa: F401
        import repro.packs  # noqa: F401
    runner = BatchRunner(
        jobs=JOBS[workload], cache_dir=None if cache_dir == "-" else cache_dir
    )
    if runner.jobs > 1:
        runner.run(warmup_specs())
    elapsed = time.perf_counter() - _T0
    runner.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
