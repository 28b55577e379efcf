"""The policy manifest: *which* code each analysis rule applies to.

The rules in :mod:`repro.analysis.rules` are generic AST checks; this
module pins them to the concrete invariants of this repository -- the
one module allowed to construct random generators, the directories
allowed to read wall clocks, the classes on the simulation hot path
that must declare ``__slots__``, and the identifier names the float
timestamp rule treats as simulation times.

Keeping the policy in one place means a reviewer can audit "what does
the linter actually enforce?" without reading any visitor code, and a
new hot-path class is added here, not inside a rule.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "ARENA_BUFFER_ATTRS",
    "ARENA_FROZEN_FLAG",
    "ARENA_THAW_ENTRY_POINTS",
    "ARENA_THAW_METHOD",
    "CELL_CONSTRUCTOR",
    "CELL_MODULES",
    "FREE_LIST_RELEASE_FUNCTIONS",
    "FREE_LIST_RELEASE_METHODS",
    "HOT_PATH_CLASSES",
    "ORDERED_WRAPPERS",
    "PROCESS_DIRECTIVES",
    "RNG_MODULE_SUFFIXES",
    "SCHEDULING_IMPORT_PREFIXES",
    "SUBMIT_METHODS",
    "TIMESTAMP_NAMES",
    "VERSIONED_BUFFER_ATTRS",
    "VERSION_COUNTER",
    "WALL_CLOCK_EXEMPT_PARTS",
    "is_rng_module",
    "is_wall_clock_exempt",
]

#: The only module that may construct ``numpy`` generators directly
#: (DET001).  Everything else must go through
#: :class:`repro.sim.random.RandomStreams` or
#: :func:`repro.sim.random.seeded_generator`.
RNG_MODULE_SUFFIXES: Tuple[str, ...] = ("repro/sim/random.py",)

#: Path segments whose files may read wall clocks (DET002).  The
#: benchmark harnesses measure real elapsed time by design.
WALL_CLOCK_EXEMPT_PARTS: Tuple[str, ...] = ("benchmarks",)

#: Modules importing any of these packages are considered to schedule
#: kernel events or draw randomness, and therefore fall under the
#: ordered-iteration rule (DET003).  ``numpy`` is deliberately broad:
#: in this codebase a module touching numpy is either drawing from a
#: generator or feeding data derived from one.
SCHEDULING_IMPORT_PREFIXES: Tuple[str, ...] = ("repro.sim", "numpy")

#: Callables that make an iteration order explicit and deterministic
#: (DET003 accepts ``sorted(...)`` and these ordered constructors).
ORDERED_WRAPPERS = frozenset({"sorted", "list", "tuple"})

#: Identifier names DET004 treats as simulation timestamps: float
#: ``==``/``!=`` on these is almost always a latent tie-break bug.
TIMESTAMP_NAMES = frozenset({"t", "time", "now", "deadline", "active_until"})

#: The directive types the simulation kernel recognises from a
#: :class:`repro.sim.process.Process` generator body (SIM001).
PROCESS_DIRECTIVES = frozenset({"Timeout", "Wait"})

#: Hot-path classes that must declare ``__slots__`` (PERF001): the
#: kernel allocates one ``Event`` per scheduled callback, every
#: 10 Hz sample touches a detector and a signal source, every RL
#: training transition goes through the dense Q table and traces, and
#: the fleet reducers see one ``HomeReport`` per home and one
#: ``Welford`` update per observation.
#: Each entry is ``(module path suffix, class names in that module)``.
HOT_PATH_CLASSES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro/sim/kernel.py", ("Event", "_CalendarQueue")),
    ("repro/sensors/detector.py", ("KofNDetector",)),
    ("repro/sensors/signals.py", ("SignalSource",)),
    (
        "repro/rl/dense.py",
        (
            "_ActionView",
            "StateActionIndex",
            "DenseQTable",
            "_ArgmaxProber",
            "DenseTraces",
        ),
    ),
    ("repro/fleet/metrics.py", ("Welford", "HomeReport")),
    ("repro/fleet/shard.py", ("_HomeRun",)),
    (
        "repro/rl/batch.py",
        ("GreedyPolicyTable", "MemoizedGreedyPolicy", "ShardPredictor"),
    ),
    ("repro/recognition/batch.py", ("BatchedHMM",)),
    ("repro/planning/predictor.py", ("NextStepPredictor",)),
    # The analyzer itself: the whole-program index allocates one
    # FunctionInfo/ClassInfo per definition in the tree on every lint
    # run, and the tier-1 gate plus BENCH_lint both lint all of
    # src/repro.
    (
        "repro/analysis/index.py",
        (
            "ModuleSymbols",
            "FunctionInfo",
            "ClassInfo",
            "AttributeWrite",
            "ProjectIndex",
        ),
    ),
    ("repro/analysis/callgraph.py", ("CallSite", "CallGraph")),
    ("repro/analysis/core.py", ("StatementOrder",)),
    # The zero-copy policy plane (PR 10): one PolicyArtifact per
    # distinct training per worker process, one HomeRuntime per shard
    # cell, and the arena itself -- all touched once per home
    # resolution on the fleet's hot path.
    ("repro/planning/binary.py", ("PolicyArtifact",)),
    ("repro/planning/shm.py", ("PolicyArena",)),
    ("repro/fleet/home.py", ("HomeRuntime",)),
)

#: Q-table buffer attributes whose element-wise mutation must bump
#: the monotone ``version`` counter (VER001): the dense flat buffer.
#: Whole-attribute rebinds (``clone._flat = ...`` in ``copy()``) are
#: exempt -- a fresh table starts its own counter.
VERSIONED_BUFFER_ATTRS: Tuple[str, ...] = ("_flat",)

#: The monotone counter attribute every Q-table write path must bump
#: (VER001).  Policy caches revalidate against it; a write that skips
#: the bump leaves memoized predictions stale (the PR 8 bug class).
VERSION_COUNTER = "version"

#: Buffer attributes that may be *frozen* -- backed read-only by a
#: shared-memory arena segment or an mmap'd artifact (PAR003): the
#: dense flat Q buffer and the written-mask.  Element-wise writes to
#: either must be dominated by the copy-on-write guard; an unguarded
#: write raises at best (read-only NumPy view) and corrupts every
#: attached process's policy at worst.
ARENA_BUFFER_ATTRS: Tuple[str, ...] = ("_flat", "_written")

#: The flag marking a table as arena-backed, and the copy-on-write
#: entry point that clears it (PAR003).  ``if X._frozen: X._thaw()``
#: before the write -- or a bare ``X._thaw()`` -- is the guard shape
#: the rule accepts.
ARENA_FROZEN_FLAG = "_frozen"
ARENA_THAW_METHOD = "_thaw"

#: Qualified names allowed to touch frozen buffers without a guard
#: (PAR003): the thaw implementation itself is the guard.
ARENA_THAW_ENTRY_POINTS: Tuple[str, ...] = ("DenseQTable._thaw",)

#: Where the picklable work-cell constructor lives (PAR001): a call
#: resolving to ``Cell`` imported from one of these modules is a
#: parallel submission site.
CELL_MODULES: Tuple[str, ...] = ("repro.evalx.parallel", "repro.evalx")
CELL_CONSTRUCTOR = "Cell"

#: Executor-style ``.submit(fn, ...)`` method names whose first
#: argument crosses a process boundary (PAR001).
SUBMIT_METHODS = frozenset({"submit"})

#: Free-list release spellings (SIM003): the kernel's module-level
#: ``_release(free, event)`` helper and the method form.  After either
#: runs on an event, the event belongs to the free list.
FREE_LIST_RELEASE_FUNCTIONS = frozenset({"_release"})
FREE_LIST_RELEASE_METHODS = frozenset({"recycle"})


def is_rng_module(posix_path: str) -> bool:
    """True for the module sanctioned to construct generators."""
    return posix_path.endswith(RNG_MODULE_SUFFIXES)


def is_wall_clock_exempt(posix_path: str) -> bool:
    """True when ``posix_path`` sits under a wall-clock-exempt part."""
    return any(part in WALL_CLOCK_EXEMPT_PARTS
               for part in posix_path.split("/"))
