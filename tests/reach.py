"""Reach audit: the ``src/repro`` functions that no workload calls.

Run with ``python -m tests.reach`` (or ``make reach``).  It records,
through ``sys.setprofile``, every ``src/repro`` function called while
it runs the full report at ``--jobs`` 1 and 2; a fleet cold, warm and
at 5 episodes, each at ``--jobs`` 1 and 2; every CLI verb, ``--config``
included; and every example.  It prints each function never called as
``path:line name``, then a summary line.  Forked workers' calls are
not recorded: each ``--jobs 2`` root also runs at ``--jobs 1``, which
calls the same worker code in this process.  Outputs go to a temporary
directory; the tree is never edited.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "src"))
#: Comprehensions compile to code objects of their own; they are part
#: of the function that holds them, not functions.
_INLINE = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname


def functions():
    """Every function of ``src/repro``, by (file, first line, qualname)."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if inspect.iscode(const):
                    stack.append(const)
                    if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in _INLINE:
                        found.add(_key(const))
    return found


def run_roots(tmp: Path) -> None:
    """Run every root once (usage errors included)."""
    from repro.cli import main

    config = tmp / "config.json"
    config.write_text('{"seed": 3, "planning": {"epsilon": 0.2}}')
    fleet = ["fleet", "--homes", "40", "--shard-size", "10", "--seed-classes", "4"]
    argvs = [["report"], ["report", "--jobs", "2"]]
    for jobs in ("1", "2"):
        fleet_jobs = fleet + ["--jobs", jobs, "--cache", str(tmp / f"fleet-{jobs}")]
        argvs += [fleet_jobs + ["--timing"], fleet_jobs + ["--json"],
                  fleet_jobs + ["--json", "--episodes", "5"]]
    report = ["report", "--fast", "--cache", str(tmp / "report")]
    argvs += [
        ["list-adls"], ["scenario"], ["simulate", "nope"],
        ["train", "tea-making", "--config", str(config), "--routine", "1,3,2,4",
         "--save", str(tmp / "policy.json"), "--plot"],
        ["train", "tea-making", "--episodes", "3"],
        ["train", "tea-making", "--routine", "1,1"],
        ["simulate", "tea-making", "--episodes", "2", "--adapt", "--timeline",
         "--config", str(config)],
        report + ["--no-ablations", "--timing", "--output", str(tmp / "out.txt")],
        report,
    ]
    for argv in argvs:
        with contextlib.suppress(SystemExit):
            main(argv)
    for example in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")


def main() -> int:
    called = set()

    def record(frame, event, arg):
        called.add(frame.f_code)

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null, \
            contextlib.redirect_stdout(null), contextlib.redirect_stderr(null):
        threading.setprofile(record)
        sys.setprofile(record)
        try:
            run_roots(Path(tmp))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    everything = functions()
    never = sorted(everything - {_key(code) for code in called})
    for path, line, name in never:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name}")
    print(f"{len(never)} of {len(everything)} functions in src/repro never "
          f"called ({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
