"""One block of one workload, in a fresh process.

The parent (:mod:`bench.run`) starts this process, so ``setup_s`` runs
from process start to the end of set-up and ``peak_rss_mb`` is this
process's own.  The block issues repeats back to back until the
next one would overrun its time budget (always at least one) and
prints one JSON line on stdout.

A traced block alternates untraced and traced repeats: the traced
ones give the per-layer split, the pairs give the tracing overhead
and the check that tracing changes no output byte.

Every time the block reports is scaled to a reference host speed.
The block times a fixed calibration kernel before its first repeat
and after each one; a repeat's times are multiplied by
``REFERENCE_S`` over the mean of the two kernel times around it.  On
a shared host, contention can last minutes and slow a whole run; the
kernel slows with it, and the ratio stays put.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from bench.layers import PARENT_SIDE, TARGETS, layer_metrics
from bench.trace import Tracer, traced
from bench.workloads import WORKLOADS, Runner, Workload, digest, prepare

__all__ = ["REFERENCE_S", "calibrate", "run_block"]

#: The calibration kernel's time on the reference host: reported times
#: are what the repeat would take on a host that runs the kernel in 7.5 ms.
REFERENCE_S = 0.0075


class _Cell:
    __slots__ = ("value", "items")

    def __init__(self, value: int, items: List[int]) -> None:
        self.value = value
        self.items = items


def calibrate() -> float:
    """Best of three timings of a fixed calibration kernel, in seconds.

    The kernel builds, walks and frees 30k small objects that each hold
    a list: allocation and attribute work like the simulator's.  Host
    contention slows it about as much as it slows the workloads, more
    steadily than a bare arithmetic loop.  The collector is off
    while it runs, so the program's heap and gc settings do not move it.
    """
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            cells = [_Cell(value, [value]) for value in range(30_000)]
            sum(cell.value for cell in cells if cell.items)
            del cells
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def _scaled(metrics: Dict[str, float], scale: float) -> Dict[str, float]:
    """``metrics`` with every time (``*_s``, ``*_ms``) multiplied by ``scale``."""
    return {
        name: value * scale if name.endswith(("_s", "_ms")) else value
        for name, value in metrics.items()
    }


def _cpu_seconds() -> float:
    """CPU seconds of this process and of every worker it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """Max RSS of this process and of any worker it has reaped."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


class _Block:
    def __init__(self, workload: Workload, run: Runner) -> None:
        self.workload = workload
        self.run = run
        self.repeats: List[Dict[str, object]] = []
        self.layers: List[Dict[str, float]] = []
        #: ``run_all``'s own per-section seconds, from untraced repeats.
        self.sections: List[Dict[str, float]] = []
        self.tracer: Optional[Tracer] = None
        #: Kernel times: one before the first repeat, one after each.
        self.calibrations = [calibrate()]

    def repeat(self, jobs: int, trace: bool) -> None:
        record: Dict[str, object] = {"traced": trace, "jobs": jobs}
        timings: Dict[str, float] = {}
        tracer = None
        cpu = _cpu_seconds()
        start = time.perf_counter()
        try:
            if trace:
                with traced(TARGETS, repeat=len(self.repeats)) as tracer:
                    output = self.run(jobs, timings)
            else:
                output = self.run(jobs, timings)
            record["digest"] = digest(output)
        except Exception as error:  # a failed repeat is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            record["error"] = f"{type(error).__name__}: {error}"
        wall = time.perf_counter() - start
        cpu = _cpu_seconds() - cpu
        self.calibrations.append(calibrate())
        scale = REFERENCE_S / statistics.mean(self.calibrations[-2:])
        record.update(raw_wall_s=wall, wall_s=wall * scale, cpu_s=cpu * scale)
        self.repeats.append(record)
        if "error" in record:
            return
        if tracer is None:
            if timings:
                self.sections.append(
                    {name: seconds * scale for name, seconds in timings.items()}
                )
            return
        self.layers.append(
            _scaled(layer_metrics(tracer, self.workload.units), scale)
        )
        # Only the last traced repeat's spans are written out.
        self.tracer = tracer


def run_block(
    name: str,
    seed: int,
    budget: float,
    trace: bool,
    spawned: float,
    scratch: Path,
    trace_file: Optional[Path] = None,
) -> Dict[str, object]:
    """Set up ``name`` at ``seed``, run one block, return its record."""
    workload = WORKLOADS[name]
    run, episodes = prepare(workload, seed, scratch)
    setup = time.monotonic() - spawned
    jobs = workload.jobs_here()
    block = _Block(workload, run)
    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "jobs": jobs,
        "episodes_per_home": episodes,
        "raw_setup_s": setup,
        "setup_s": setup * REFERENCE_S / block.calibrations[0],
    }
    timed = time.perf_counter()
    while True:
        block.repeat(jobs, trace=False)
        if trace:
            block.repeat(jobs, trace=True)
        walls = [repeat["raw_wall_s"] for repeat in block.repeats]
        elapsed = time.perf_counter() - timed
        if elapsed + statistics.median(walls) * (1 + trace) > budget:
            break
    result["peak_rss_mb"] = _peak_rss_mb()
    if trace:
        result.update(_trace_summary(block, jobs, trace_file))
    result["repeats"] = block.repeats
    result["calibration_s"] = block.calibrations
    return result


def _trace_summary(
    block: _Block, jobs: int, trace_file: Optional[Path]
) -> Dict[str, object]:
    walls = {True: [], False: []}
    for repeat in block.repeats:
        if "error" not in repeat:
            walls[repeat["traced"]].append(repeat["wall_s"])
    overhead = 0.0
    if walls[True] and walls[False]:
        ratio = statistics.median(walls[True]) / statistics.median(walls[False])
        overhead = (ratio - 1.0) * 100.0
    layers = _median_metrics(block.layers)
    sources = {}
    if jobs > 1:
        # Workers' spans stay in the workers: take the worker-side
        # layers from a jobs-1 traced repeat of the same spec.  Counts
        # are the same at any jobs by the determinism contract.
        parent_layers = layers
        count = len(block.layers)
        block.repeat(1, trace=True)
        worker_layers = _median_metrics(block.layers[count:])
        layers = {
            name: parent_layers.get(name, 0.0) if name in PARENT_SIDE else value
            for name, value in worker_layers.items()
        }
        sources = {
            name: f"jobs {jobs}" if name in PARENT_SIDE else "jobs 1"
            for name in layers
        }
    layers["trace.overhead_pct"] = overhead
    for section, seconds in _median_metrics(block.sections).items():
        layers[f"evalx.section.{section}_s"] = seconds
    summary: Dict[str, object] = {"layers": layers, "layer_sources": sources}
    if block.tracer is not None and trace_file is not None:
        block.tracer.write(trace_file)
        summary["trace_file"] = str(trace_file)
    return summary


def _median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    if not samples:
        return {}
    return {
        name: statistics.median(sample.get(name, 0.0) for sample in samples)
        for name in samples[0]
    }
