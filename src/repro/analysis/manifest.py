"""The policy manifest: *which* code each analysis rule applies to.

The rules in :mod:`repro.analysis.rules` are generic AST checks; this
module pins them to the concrete invariants of this repository -- the
one module allowed to construct random generators, the classes on the
simulation hot path that must declare ``__slots__``, and the
identifier names the float timestamp rule treats as simulation times.

Keeping the policy in one place means a reviewer can audit "what does
the linter actually enforce?" without reading any visitor code, and a
new hot-path class is added here, not inside a rule.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "DENSE_OWNER_MODULE",
    "DENSE_PRIVATE_ATTRS",
    "HOT_PATH_CLASSES",
    "ORDERED_WRAPPERS",
    "PROCESS_DIRECTIVES",
    "RNG_MODULE_SUFFIXES",
    "SCHEDULING_IMPORT_PREFIXES",
    "TIMESTAMP_NAMES",
    "is_rng_module",
]

#: The only module that may construct ``numpy`` generators directly
#: (DET001).  Everything else must go through
#: :class:`repro.sim.random.RandomStreams` or
#: :func:`repro.sim.random.seeded_generator`.
RNG_MODULE_SUFFIXES: Tuple[str, ...] = ("repro/sim/random.py",)

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
    ("repro/sim/kernel.py", ("Event",)),
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
    ("repro/rl/batch.py", ("GreedyPolicyTable", "ShardPredictor")),
    ("repro/planning/predictor.py", ("NextStepPredictor",)),
    # Zero-copy policy restore: one PolicyArtifact per
    # distinct training per worker process, one HomeRuntime per shard
    # cell, and the arena itself -- all touched once per home
    # resolution on the fleet's hot path.
    ("repro/planning/binary.py", ("PolicyArtifact",)),
    ("repro/planning/shm.py", ("PolicyArena",)),
    ("repro/fleet/home.py", ("HomeRuntime",)),
)

#: The one module that owns ``DenseQTable``'s storage (VER001), and
#: the private attributes nothing outside it may read or write: the
#: flat Q buffer and its written-mask, the copy-on-write flag and
#: thaw, the growth path and its counter, and the given-order gather
#: lane.  Stores to ``version`` are reserved to the owner too.
DENSE_OWNER_MODULE = "repro/rl/dense.py"
DENSE_PRIVATE_ATTRS: Tuple[str, ...] = (
    "_flat",
    "_written",
    "_frozen",
    "_thaw",
    "_grow",
    "_grow_count",
    "_g0",
    "_g0_view",
)

def is_rng_module(posix_path: str) -> bool:
    """True for the module sanctioned to construct generators."""
    return posix_path.endswith(RNG_MODULE_SUFFIXES)
