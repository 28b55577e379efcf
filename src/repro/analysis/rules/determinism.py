"""DET00x: rules guarding byte-identical experiment reproduction.

Every experiment in this repository is required to produce identical
bytes across seeds of the hash randomizer, ``--jobs`` counts and shard
layouts, and the same bytes as the reference implementations kept as
test oracles.  These rules encode the coding invariants that proof
rests on:

* **DET001** -- all randomness flows through named
  :class:`repro.sim.random.RandomStreams` streams (or the sanctioned
  :func:`repro.sim.random.seeded_generator` shim), so adding a
  component never perturbs another component's draws.
* **DET002** -- simulation code reads the kernel clock, never the
  wall clock; only the ``bench/`` harness, outside ``src/repro``,
  measures real time.
* **DET003** -- code that schedules kernel events or draws randomness
  never iterates an unordered collection: ``set`` iteration order
  depends on ``PYTHONHASHSEED``.
* **DET004** -- simulation timestamps are floats accumulated by
  addition; ``==``/``!=`` on them silently stops matching once a code
  path changes the accumulation pattern.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Tuple

from repro.analysis import manifest
from repro.analysis.core import Finding, ModuleContext, Rule, dotted_name, register

__all__ = [
    "DirectRngConstruction",
    "FloatTimestampEquality",
    "UnorderedIteration",
    "WallClockRead",
]

_NUMPY_RANDOM_PREFIXES = ("np.random.", "numpy.random.")
_BARE_RNG_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "PCG64",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})


@register
class DirectRngConstruction(Rule):
    rule_id = "DET001"
    severity = "error"
    description = (
        "random generators are constructed only inside repro.sim.random; "
        "everywhere else use RandomStreams.get(name) or seeded_generator(seed)"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        if manifest.is_rng_module(module.posix_path):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "numpy.random"
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"import of {alias.name!r}: draw through "
                            "repro.sim.random.RandomStreams instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                from_module = node.module or ""
                if from_module == "random" or from_module.startswith(
                    "numpy.random"
                ):
                    yield self.finding(
                        module,
                        node,
                        f"import from {from_module!r}: draw through "
                        "repro.sim.random.RandomStreams instead",
                    )
                elif from_module == "numpy" and any(
                    alias.name == "random" for alias in node.names
                ):
                    yield self.finding(
                        module,
                        node,
                        "import of numpy.random: draw through "
                        "repro.sim.random.RandomStreams instead",
                    )
            elif isinstance(node, ast.Call):
                message = self._call_violation(node)
                if message:
                    yield self.finding(module, node, message)

    @staticmethod
    def _call_violation(node: ast.Call) -> Optional[str]:
        dotted = dotted_name(node.func)
        if dotted and dotted.startswith(_NUMPY_RANDOM_PREFIXES):
            return (
                f"direct {dotted}(...) construction/draw; use "
                "repro.sim.random (RandomStreams or seeded_generator)"
            )
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _BARE_RNG_CONSTRUCTORS
        ):
            return (
                f"direct {node.func.id}(...) generator construction; use "
                "repro.sim.random (RandomStreams or seeded_generator)"
            )
        return None


@register
class WallClockRead(Rule):
    rule_id = "DET002"
    severity = "error"
    description = (
        "no wall-clock reads in simulation code: simulated time comes from "
        "Simulator.now; real time is measured outside src/repro"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "") == "time":
                    for alias in node.names:
                        if alias.name in _TIME_ATTRS:
                            yield self.finding(
                                module,
                                node,
                                f"import of time.{alias.name}: wall-clock "
                                "reads do not belong in simulation code",
                            )
            elif isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if not dotted:
                    continue
                parts = dotted.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "time"
                    and parts[1] in _TIME_ATTRS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{dotted}() reads the wall clock; use the kernel "
                        "clock (Simulator.now)",
                    )
                elif parts[-1] in _DATETIME_ATTRS and any(
                    part in ("datetime", "date") for part in parts[:-1]
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{dotted}() reads the wall clock; simulation "
                        "timestamps must come from the kernel",
                    )


@register
class UnorderedIteration(Rule):
    rule_id = "DET003"
    severity = "warning"
    description = (
        "modules that schedule kernel events or draw randomness must not "
        "iterate bare set / dict.keys() / dict.values(); wrap the iterable "
        "in sorted(...) or an explicit ordered container (list/tuple)"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        if not any(
            module.imports_prefix(prefix)
            for prefix in manifest.SCHEDULING_IMPORT_PREFIXES
        ):
            return
        for node, iterable in _iteration_sources(module.tree):
            message = self._iterable_violation(iterable)
            if message:
                yield self.finding(module, iterable, message)

    @staticmethod
    def _iterable_violation(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Set):
            return (
                "iteration over a set literal: order depends on "
                "PYTHONHASHSEED; wrap in sorted(...)"
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return (
                    f"iteration over {func.id}(...): order depends on "
                    "PYTHONHASHSEED; wrap in sorted(...)"
                )
            if isinstance(func, ast.Attribute) and func.attr in (
                "keys",
                "values",
            ):
                return (
                    f"iteration over bare .{func.attr}(): make the order "
                    "explicit with sorted(...) or an ordered container "
                    "(list/tuple)"
                )
        return None


def _iteration_sources(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """Yield ``(owner, iterable)`` for every for-loop/comprehension."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for generator in node.generators:
                yield node, generator.iter


@register
class FloatTimestampEquality(Rule):
    rule_id = "DET004"
    severity = "error"
    description = (
        "no float ==/!= on simulation timestamps "
        f"(names: {', '.join(sorted(manifest.TIMESTAMP_NAMES))}); compare "
        "with <=/>= windows, except against float('inf') sentinels"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Eq, ast.NotEq)):
                    sides = (left, right)
                    if any(map(_is_timestamp_name, sides)) and not any(
                        map(_is_exact_sentinel, sides)
                    ):
                        yield self.finding(
                            module,
                            node,
                            "float equality on a simulation timestamp; "
                            "use an ordering comparison or a tolerance",
                        )
                        break
                left = right


def _is_timestamp_name(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in manifest.TIMESTAMP_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in manifest.TIMESTAMP_NAMES
    return False


def _is_exact_sentinel(node: ast.AST) -> bool:
    """Comparands for which exact equality is well-defined.

    ``float("inf")`` / ``math.inf`` sentinels (and their negations)
    compare exactly; so do ``None`` / ``str`` / ``bool`` constants,
    which signal the comparison is not between two float times.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_exact_sentinel(node.operand)
    if isinstance(node, ast.Constant):
        return node.value is None or isinstance(node.value, (str, bool))
    if isinstance(node, ast.Call):
        func = node.func
        return (
            isinstance(func, ast.Name)
            and func.id == "float"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).lstrip("+-") in ("inf", "Infinity")
        )
    if isinstance(node, ast.Attribute):
        return node.attr in ("inf", "infinity")
    return False
