"""The CoReDA benchmark: four workloads, end-to-end and per-layer metrics.

``python -m bench run --seed S`` measures every workload with tracing
off, checks the outputs against pinned digests, then makes one traced
run per workload for the per-layer split.  ``python -m bench compare
A.json B.json`` applies the regression bounds of ``BENCHMARK.json`` to
two result files.  See ``bench/README.md``.

The benchmark reaches into ``src/repro`` only from outside: it calls
the public entry points (``run_all``, ``run_fleet``) and, in a traced
run, wraps layer functions at run time (:mod:`bench.trace`).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
