"""Output checks: a run reports metrics only if its outputs are right.

* ``paper-quick`` must equal the stdout of ``hipster-repro all --quick
  --seed S``, byte for byte.
* ``fleet-faults`` (2 workers) must equal the pack's serial render.
* ``warm-replay`` must equal the cold outputs it re-serves.

References are sha256 digests.  ``digests.json`` holds them for a range
of seeds (regenerate with ``python3 perfbench/record_digests.py``); for
any other seed the reference is computed on the spot, outside the
timed section.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    """The recorded reference digest, if this seed has one."""
    try:
        table = json.loads(DIGESTS_PATH.read_text())
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def cli_all_quick_digest(root: Path, seed: int) -> str:
    """sha256 of ``hipster-repro all --quick --seed <seed>`` stdout,
    run from the checkout's sources in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "all", "--quick", "--seed", str(seed)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=True,
    )
    return hashlib.sha256(proc.stdout).hexdigest()


def serial_fleet_faults_digest(seed: int) -> str:
    """sha256 of the fleet-faults render from a serial, uncached runner."""
    from repro.sim.batch import BatchRunner

    from perfbench.workloads import fleet_faults, fleet_faults_document

    with BatchRunner(jobs=1) as runner:
        return sha256(fleet_faults(fleet_faults_document(seed), runner))


def reference_digest(workload: str, seed: int, root: Path) -> str:
    """The digest ``workload`` (``paper-quick`` or ``fleet-faults``)
    must produce at ``seed``."""
    recorded = recorded_digest(workload, seed)
    if recorded is not None:
        return recorded
    if workload == "paper-quick":
        return cli_all_quick_digest(root, seed)
    return serial_fleet_faults_digest(seed)


def mismatches(outputs: list[str], expected: str) -> list[int]:
    """Indices of outputs whose digest differs from ``expected``."""
    return [i for i, text in enumerate(outputs) if sha256(text) != expected]
