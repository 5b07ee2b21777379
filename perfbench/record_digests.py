"""Regenerate ``perfbench/digests.json``: the reference output digests
the benchmark checks against, for a range of seeds.

* ``paper-quick``: sha256 of ``hipster-repro all --quick --seed S``
  stdout (serial CLI run in a child process).
* ``fleet-faults``: sha256 of the fleet-faults pack's serial render.

Run from the checkout root::

    python3 perfbench/record_digests.py --seeds 0-99

Seeds already in the file are kept; delete the file to record every
seed again (needed only when the program's outputs change on purpose,
with a kernel or schema version bump).  A seed without a digest is
checked against a reference computed on the spot instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range, e.g. 0-99")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import check

    table = (
        json.loads(check.DIGESTS_PATH.read_text())
        if check.DIGESTS_PATH.exists()
        else {}
    )
    paper, fleet = table.setdefault("paper-quick", {}), table.setdefault("fleet-faults", {})
    for seed in _seeds(args.seeds):
        if str(seed) not in paper:
            paper[str(seed)] = check.cli_all_quick_digest(ROOT, seed)
        if str(seed) not in fleet:
            fleet[str(seed)] = check.serial_fleet_faults_digest(seed)
        ordered = {
            workload: dict(sorted(digests.items(), key=lambda kv: int(kv[0])))
            for workload, digests in table.items()
        }
        check.DIGESTS_PATH.write_text(json.dumps(ordered, indent=1) + "\n")
        print(f"seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
