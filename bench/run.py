"""Run the benchmark: blocks in fresh processes, round-robin, checked.

A *block* is one worker process (:mod:`bench.worker`) running one
workload for a share of ``--seconds``.  Blocks of different workloads
interleave round-robin (A B C D A B C D ...), so a slow phase of a
shared host lands on every workload rather than on one.  One block
runs at a time: the load never exceeds the workload's own processes,
and the one multi-process workload caps its jobs at ``nproc``.

Each block times a fixed calibration kernel before its first repeat
and after every repeat (:func:`bench.worker.calibrate`); a block whose
kernel time drifts by more than the ``wall_s`` bound from its first
reading to its last is flagged noisy.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from bench import DIGESTS_PATH, OUT, ROOT
from bench.workloads import WORKLOADS, available_cpus

__all__ = ["config", "environment", "run_workloads", "spawn_block"]

#: A worker exit status meaning ``repro`` could not be imported.
NO_PROGRAM = 3

#: Untraced blocks per workload, interleaved round-robin.
ROUNDS = 3

_BLOCKS = itertools.count()


def config() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bound(name: str) -> float:
    for metric in config()["end_to_end"]:
        if metric["name"] == name:
            return metric["bound"]
    raise KeyError(name)


def _git_sha() -> Optional[str]:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": available_cpus(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


class ProgramMissing(RuntimeError):
    """The checkout has no runnable ``repro`` package."""


def spawn_block(
    name: str,
    seed: int,
    budget: float,
    trace: bool,
    deadline: Optional[float] = None,
    trace_file: Optional[Path] = None,
) -> Dict[str, object]:
    """Run one block in a fresh worker process; return its record.

    A block still running at ``deadline`` (``time.monotonic()``) is
    killed, with its workers, and counts as failed.
    """
    scratch = OUT / "tmp" / f"{name}-{os.getpid()}-{next(_BLOCKS)}"
    scratch.mkdir(parents=True, exist_ok=True)
    # run_fleet's private caches go through tempfile: keep them here.
    env = dict(os.environ, TMPDIR=str(scratch))
    loadavg = os.getloadavg()[0]
    spawned = time.monotonic()
    command = [
        sys.executable, "-m", "bench", "worker",
        "--workload", name, "--seed", str(seed), "--budget", repr(budget),
        "--trace", str(int(trace)), "--spawned", repr(spawned),
        "--scratch", str(scratch),
    ]
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    timeout = None if deadline is None else max(deadline - time.monotonic(), 1.0)
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        stdout = ""
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if process.returncode == NO_PROGRAM:
        raise ProgramMissing("the worker could not import repro")
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if process.returncode == 0 else None
    except (IndexError, ValueError):
        record = None
    if record is None:
        record = {"error": f"worker exited with status {process.returncode}"}
    # The kernel times before the block's first repeat and after its last.
    calibrations = record.get("calibration_s", [1.0])
    drift = abs(calibrations[-1] / calibrations[0] - 1.0)
    record.update(loadavg=loadavg, noisy=drift > _bound("wall_s"))
    return record


def summarize(
    name: str,
    seed: int,
    blocks: List[Dict[str, object]],
    traced: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Check every digest; gather the end-to-end samples of a workload.

    The untraced ``blocks`` give the samples; the ``traced`` block,
    when there is one, must produce the same digests.
    """
    units = WORKLOADS[name].units
    checked = blocks + ([traced] if traced is not None else [])
    repeats = [repeat for block in checked for repeat in block.get("repeats", [])]
    pinned = json.loads(DIGESTS_PATH.read_text(encoding="utf-8")).get(name, {})
    expected = pinned.get(str(seed))
    seen = Counter(repeat["digest"] for repeat in repeats if "digest" in repeat)
    if expected is None and seen:
        expected = seen.most_common(1)[0][0]
    # A block that died before reporting counts as one failed attempt.
    attempted = len(repeats) + sum(1 for block in checked if "repeats" not in block)
    good = [repeat for repeat in repeats if repeat.get("digest") == expected]
    failed = attempted - len(good)
    timed = [
        repeat
        for block in blocks
        for repeat in block.get("repeats", [])
        if repeat.get("digest") == expected
    ]
    measured = [block for block in blocks if "repeats" in block]
    summary: Dict[str, object] = {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "digest": {
            "expected": expected,
            "pinned": str(seed) in pinned,
            "matching": len(good),
            "traced_matching": sum(1 for repeat in good if repeat["traced"]),
            "traced": sum(1 for repeat in repeats if repeat["traced"]),
        },
        "noisy_blocks": sum(1 for block in blocks if block["noisy"]),
        "samples": {
            "wall_s": [repeat["wall_s"] for repeat in timed],
            "homes_per_s": [units / repeat["wall_s"] for repeat in timed],
            "cpu_s": [repeat["cpu_s"] for repeat in timed],
            "setup_s": [block["setup_s"] for block in measured],
            "peak_rss_mb": [block["peak_rss_mb"] for block in measured],
            # Unscaled, for reading the host; no bound applies to these.
            "raw_wall_s": [repeat["raw_wall_s"] for repeat in timed],
            "calibration_s": [
                seconds for block in measured for seconds in block["calibration_s"]
            ],
        },
        "blocks": blocks,
    }
    if traced is not None:
        summary["traced_block"] = traced
        summary["layers"] = traced.get("layers", {})
        summary["layer_sources"] = traced.get("layer_sources", {})
    return summary


def run_workloads(
    names: Iterable[str],
    seed: int,
    seconds: float,
    trace: Optional[bool],
    deadline: Optional[float] = None,
) -> Dict[str, Dict]:
    """Untraced rounds (unless ``trace``), then one traced block each.

    ``trace=None`` does both; ``False`` only the untraced rounds;
    ``True`` only the traced block, which gets all of ``seconds``.
    """
    names = list(names)
    blocks: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    traced: Dict[str, Dict[str, object]] = {}
    if trace is not True:
        for _ in range(ROUNDS):
            for name in names:
                blocks[name].append(
                    spawn_block(name, seed, seconds / ROUNDS, False, deadline)
                )
    if trace is not False:
        budget = seconds if trace else seconds / ROUNDS
        for name in names:
            trace_file = OUT / f"trace-{name}-seed{seed}.json.gz"
            traced[name] = spawn_block(
                name, seed, budget, True, deadline, trace_file=trace_file
            )
    return {
        name: summarize(name, seed, blocks[name], traced.get(name))
        for name in names
    }
