"""Source invariants behind byte-identical runs, checked on the tree.

Every experiment must produce the same bytes across hash seeds,
``--jobs`` counts and shard layouts.  That rests on a coding
discipline no single run can prove, so each rule below is one walk of
the ``src/repro`` sources that asserts an empty offender list:

* randomness is built only in ``sim/random.py`` (DET001);
* the wall clock is read only in ``evalx/parallel.py``, whose
  :func:`~repro.evalx.parallel.timed` serves timing displays (DET002);
* code touching numpy or the kernel never iterates a set or a bare
  ``.keys()``/``.values()`` (DET003);
* simulation timestamps are never compared with ``==``/``!=`` (DET004);
* a process body yields only kernel directives (SIM001);
* every ``capture``/``snapshot`` method has its ``restore`` (SIM002);
* the hot-path classes declare ``__slots__`` (PERF001);
* only ``rl/dense.py`` touches ``DenseQTable`` storage or stores
  ``version``, so every write thaws and bumps together (VER001).
"""

from __future__ import annotations

import ast
import functools
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

RNG_MODULE = "sim/random.py"
WALL_CLOCK_MODULE = "evalx/parallel.py"
TIMESTAMP_NAMES = {"t", "time", "now", "deadline", "active_until"}
DIRECTIVES = {"Timeout", "Wait"}
HOT_PATH_CLASSES = {
    "repro.sim.kernel": ("Event",),
    "repro.sensors.detector": ("KofNDetector",),
    "repro.sensors.signals": ("SignalSource",),
    "repro.rl.dense": (
        "_ActionView", "StateActionIndex", "DenseQTable", "_ArgmaxProber",
        "DenseTraces",
    ),
    "repro.rl.batch": ("GreedyPolicyTable", "ShardPredictor"),
    "repro.fleet.metrics": ("Welford", "HomeReport"),
    "repro.fleet.shard": ("_HomeRun",),
    "repro.fleet.home": ("HomeRuntime",),
    "repro.planning.predictor": ("NextStepPredictor",),
    "repro.planning.binary": ("PolicyArtifact",),
    "repro.planning.shm": ("PolicyArena",),
}
DENSE_OWNER = "rl/dense.py"
DENSE_PRIVATE = {
    "_flat", "_written", "_grow", "_grow_count", "_g0", "_g0_view",
}


@functools.cache
def _modules():
    """``(path under src/repro, parsed module)``, parsed once per run."""
    return tuple(
        (path.relative_to(SRC).as_posix(),
         ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.rglob("*.py"))
    )


def _dotted(node) -> str:
    """``a.b.c`` for a chain of names, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def _leaf(node):
    """The name a ``Name`` or ``Attribute`` ends in, else ``None``."""
    return getattr(node, "id", getattr(node, "attr", None))


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (
                f"{node.module or ''}.{alias.name}" for alias in node.names
            )


def test_generators_are_built_only_in_the_rng_module():
    constructors = {
        "default_rng", "Generator", "RandomState", "SeedSequence", "PCG64",
        "Philox", "MT19937", "SFC64",
    }
    offenders = []
    for name, tree in _modules():
        if name == RNG_MODULE:
            continue
        for imported in _imports(tree):
            if imported.split(".")[0] == "random" or imported.startswith(
                "numpy.random"
            ):
                offenders.append(f"{name}: import {imported}")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = _dotted(node.func)
            if called.startswith(("np.random.", "numpy.random.")) or (
                called in constructors
            ):
                offenders.append(f"{name}:{node.lineno}: {called}()")
    assert offenders == []


def test_the_wall_clock_is_read_in_one_module():
    clocks = {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
    }
    offenders = []
    for name, tree in _modules():
        if name == WALL_CLOCK_MODULE:
            continue
        for imported in _imports(tree):
            if imported.startswith("time.") and imported[5:] in clocks:
                offenders.append(f"{name}: import {imported}")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            *owners, leaf = _dotted(node.func).split(".")
            if owners == ["time"] and leaf in clocks or (
                leaf in {"now", "utcnow", "today"}
                and {"datetime", "date"} & set(owners)
            ):
                offenders.append(f"{name}:{node.lineno}: {leaf}()")
    assert offenders == []


def test_no_unordered_iteration_where_draws_or_events_flow():
    offenders = []
    for name, tree in _modules():
        if not any(
            imported.split(".")[0] == "numpy"
            or imported == "repro.sim" or imported.startswith("repro.sim.")
            for imported in _imports(tree)
        ):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp),
            ):
                iterables = [generator.iter for generator in node.generators]
            else:
                continue
            for it in iterables:
                func = getattr(it, "func", None)
                if isinstance(it, ast.Set) or (
                    isinstance(func, ast.Name)
                    and func.id in {"set", "frozenset"}
                ) or (
                    isinstance(func, ast.Attribute)
                    and func.attr in {"keys", "values"}
                ):
                    offenders.append(f"{name}:{it.lineno}")
    assert offenders == []


def _is_exact_sentinel(node) -> bool:
    """``inf``, ``float("inf")``, ``None``, a string or a bool."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_exact_sentinel(node.operand)
    if isinstance(node, ast.Constant):
        return node.value is None or isinstance(node.value, (str, bool))
    if isinstance(node, ast.Call):
        return (
            _dotted(node.func) == "float" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).lstrip("+-") in {"inf", "Infinity"}
        )
    return isinstance(node, ast.Attribute) and node.attr in {"inf", "infinity"}


def test_no_float_equality_on_timestamps():
    offenders = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, sides, sides[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if {_leaf(left), _leaf(right)} & TIMESTAMP_NAMES and not (
                    _is_exact_sentinel(left) or _is_exact_sentinel(right)
                ):
                    offenders.append(f"{name}:{node.lineno}")
    assert offenders == []


def _own_yields(function):
    """The yields of ``function`` itself, not of nested scopes."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Yield):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_directive(value) -> bool:
    return isinstance(value, ast.Call) and _leaf(value.func) in DIRECTIVES


def test_process_bodies_yield_only_directives():
    # A name, attribute or subscript may hold a directive built
    # elsewhere; a bare yield, a literal, an operator's result or any
    # other call cannot.
    impossible = (
        ast.Constant, ast.Tuple, ast.List, ast.Dict, ast.Set, ast.JoinedStr,
        ast.BinOp, ast.UnaryOp, ast.Compare, ast.BoolOp, ast.Call,
    )
    bodies, offenders = 0, []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yields = list(_own_yields(node))
            if not any(_is_directive(y.value) for y in yields):
                continue
            bodies += 1
            for y in yields:
                value = y.value
                if value is None or (
                    isinstance(value, impossible) and not _is_directive(value)
                ):
                    offenders.append(f"{name}:{y.lineno}")
    assert bodies >= 3
    assert offenders == []


def test_every_snapshot_has_its_restore():
    offenders = []
    for name, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {
                stmt.name for stmt in cls.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for method in sorted(methods):
                for prefix in ("capture", "snapshot"):
                    if method == prefix or method.startswith(prefix + "_"):
                        restore = "restore" + method[len(prefix):]
                        if restore not in methods:
                            offenders.append(f"{name}: {cls.name}.{method}")
    assert offenders == []


def test_hot_path_classes_declare_slots():
    missing = []
    for module, names in HOT_PATH_CLASSES.items():
        for name in names:
            cls = getattr(importlib.import_module(module), name)
            if "__slots__" not in vars(cls):
                missing.append(f"{module}.{name}")
    assert missing == []


def test_only_the_dense_module_touches_q_table_storage():
    offenders = []
    for name, tree in _modules():
        if name == DENSE_OWNER:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                node.attr in DENSE_PRIVATE
                or (node.attr == "version" and isinstance(node.ctx, ast.Store))
            ):
                offenders.append(f"{name}:{node.lineno}: .{node.attr}")
    assert offenders == []
