"""Deterministic parallel fan-out for the experiment harness.

Every sweep in ``repro.evalx`` decomposes into *cells*: pure,
picklable units of work (one trained seed, one detector rule, one
radio loss rate, ...).  A :class:`Section` is an ordered list of
cells plus a merge function that folds the cell results back into the
report text.  The executor fans the cells of all sections out over a
``ProcessPoolExecutor`` and merges results **in submission order**,
so the parallel report is byte-identical to the serial one: each cell
derives its randomness only from its arguments (explicit seeds, never
shared generators), and the merge order never depends on completion
order.

``--jobs 1`` (the default) runs every cell inline in the parent
process -- the parallel path and the serial path execute the same
cell functions, which is what makes byte-equality testable.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.random import derive_seed

__all__ = [
    "Cell",
    "Section",
    "WorkerPool",
    "cell_seed",
    "run_cells",
    "run_section",
    "run_sections",
    "timed",
]


def cell_seed(sweep_name: str, cell_index: int, base_seed: int) -> int:
    """Derive the seed for cell ``cell_index`` of ``sweep_name``.

    SHA-256 based (via :func:`repro.sim.random.derive_seed`), so the
    mapping is stable across processes and Python versions; two cells
    of the same sweep, or the same index in two sweeps, never share a
    stream.
    """
    return derive_seed(base_seed, f"{sweep_name}[{cell_index}]")


@dataclass(frozen=True)
class Cell:
    """One pure unit of experiment work.

    ``fn`` must be a module-level callable and every argument must be
    picklable: a cell may execute in a worker process.  A cell must
    not read mutable global state -- its result is a function of its
    arguments only.  Transparent memoization does not break this: the
    report's training memo
    (:func:`~repro.planning.trainer.training_memo`) hands a cell
    exactly the result, learner and generator state its own training
    would have produced.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


@dataclass
class Section:
    """An ordered group of cells plus the fold back into a result."""

    name: str
    cells: List[Cell]
    merge: Callable[[List[Any]], Any]


def timed(
    fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> Tuple[Any, float]:
    """``(fn(*args, **kwargs), seconds)``: the one wall-clock read in
    ``src/repro``.

    The seconds only ever reach a timing display, never a result, so
    the outputs stay a function of the seeds alone.
    """
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _timed_cell(cell: Cell) -> Tuple[Any, float]:
    """Worker entry point: run one cell, returning (result, seconds)."""
    return timed(cell.run)


class WorkerPool:
    """A persistent process pool reused across :func:`run_cells` calls.

    A fleet run pushes several waves of cells (the distinct-routine
    training wave, then the home shards) through one pool, so worker
    processes fork once and amortize interpreter startup over the
    whole run.  The underlying executor is created lazily: a pool
    opened for a ``jobs=1`` run never forks at all.

    ``initializer``/``initargs`` run once in every worker process as
    it starts -- the channel for per-run, many-cell state (the fleet's
    shared-memory policy registry rides here, so cell payloads stay
    scalar).  The initializer must be a module-level function and its
    arguments picklable, the same contract as the cells themselves.

    Use as a context manager; :meth:`close` is idempotent.
    """

    def __init__(
        self,
        jobs: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> None:
        self.jobs = max(int(jobs), 1)
        self.initializer = initializer
        self.initargs = tuple(initargs)
        self._executor: Optional[ProcessPoolExecutor] = None

    def executor(self) -> Executor:
        """The lazily created process-pool executor."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _drain_windowed(
    executor: Executor,
    cells: Sequence[Cell],
    window: int,
    results: List[Any],
    seconds: List[float],
) -> None:
    """Submit ``cells`` through a bounded window, collecting in order.

    At most ``window`` cells are in flight at once, so a million-cell
    fleet never materializes a million futures (or their buffered
    results) in the parent.  Results are taken strictly in submission
    order -- the head of the window must finish before the next cell
    is submitted -- which preserves the ordered-merge contract.  When
    a cell raises, every not-yet-running future is cancelled, cells
    beyond the window are never submitted at all, and the error
    propagates to the caller.
    """
    pending: "deque" = deque()
    iterator = iter(cells)
    for cell in itertools.islice(iterator, window):
        pending.append(executor.submit(_timed_cell, cell))
    while pending:
        head = pending.popleft()
        try:
            result, elapsed = head.result()
        except BaseException:
            for future in pending:
                future.cancel()
            raise
        results.append(result)
        seconds.append(elapsed)
        for cell in itertools.islice(iterator, 1):
            pending.append(executor.submit(_timed_cell, cell))


#: Cells in flight per worker when ``run_cells`` fans out.
WINDOW_PER_JOB = 4


def run_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    pool: Optional[WorkerPool] = None,
) -> Tuple[List[Any], List[float]]:
    """Run ``cells``; return their results *in submission order*.

    ``jobs <= 1`` runs inline; otherwise a process pool of ``jobs``
    workers executes the cells concurrently.  Either way the returned
    lists are ordered like ``cells``, which is the determinism
    contract every merge function relies on.

    Submission is windowed: at most ``WINDOW_PER_JOB * jobs`` cells
    are outstanding at any moment, and a failing cell
    cancels everything still queued instead of letting the remaining
    work run to completion.  ``pool`` lends a persistent
    :class:`WorkerPool` so several calls share one set of worker
    processes; without it a fresh pool is created per call.  The pool
    changes no result -- the inline ``jobs <= 1`` path and the
    pooled path execute the same cell functions in the same order.
    """
    if jobs <= 1 or len(cells) <= 1:
        results: List[Any] = []
        seconds: List[float] = []
        for cell in cells:
            result, elapsed = _timed_cell(cell)
            results.append(result)
            seconds.append(elapsed)
        return results, seconds
    window = WINDOW_PER_JOB * jobs
    results = []
    seconds = []
    if pool is not None:
        _drain_windowed(pool.executor(), cells, window, results, seconds)
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as owned:
            _drain_windowed(owned, cells, window, results, seconds)
    return results, seconds


def run_section(section: Section) -> Any:
    """Run one section's cells inline; returns its merged result."""
    results, _ = run_cells(section.cells)
    return section.merge(results)


def run_sections(
    sections: Sequence[Section],
    jobs: int = 1,
    timings: Optional[Dict[str, float]] = None,
) -> List[Any]:
    """Run many sections over one shared pool of ``jobs`` workers.

    The cells of *all* sections are flattened into one task list, so
    a wide section cannot starve a narrow one; merges still happen
    per section, in section order.  ``timings``, when given, is
    filled with the summed cell seconds per section name (CPU cost,
    not wall-clock -- cells of different sections overlap).
    """
    flat: List[Cell] = []
    spans: List[Tuple[int, int]] = []
    for section in sections:
        start = len(flat)
        flat.extend(section.cells)
        spans.append((start, len(flat)))
    results, seconds = run_cells(flat, jobs=jobs)
    merged: List[Any] = []
    for section, (start, stop) in zip(sections, spans):
        result, merge_seconds = timed(section.merge, results[start:stop])
        merged.append(result)
        if timings is not None:
            timings[section.name] = sum(seconds[start:stop]) + merge_seconds
    return merged
