"""Benchmark-suite configuration.

Every benchmark regenerates one paper artifact at the quick (compressed)
setting, asserts the paper's *shape* on the outcome, and reports the
wall-clock cost through pytest-benchmark.  Run with::

    pytest benchmarks/ --benchmark-only
"""

import sys
from pathlib import Path

# The engine benchmark races the reference engine, a test-only module.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

collect_ignore_glob: list[str] = []
