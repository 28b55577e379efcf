"""The disabled-trace contract, checked on the source and on a run.

A disabled :class:`~repro.sim.tracing.TraceRecorder` must cost its
callers nothing: every ``self._trace.emit(...)`` call site under
``src/repro`` sits under a test of the recorder's ``enabled`` flag,
so the payload is never built for a trace nobody records.  The
simulated clock has one writer, the kernel: nothing else assigns a
``.now`` attribute.  And because the flag is read at every emit, a
recorder switched on after the deployment is built (as the per-home
fleet oracle does) records every entry.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import oracles.fleet as oracle_fleet
from repro.core.config import CoReDAConfig
from repro.fleet import FleetSpec
from repro.planning.store import PolicyCache

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
KERNEL = SRC / "sim" / "kernel.py"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _parents(tree):
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _is_trace_emit(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "emit"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "_trace"
    )


def _tests_enabled(test) -> bool:
    return any(
        isinstance(node, ast.Attribute)
        and node.attr == "enabled"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "_trace"
        for node in ast.walk(test)
    )


def test_every_trace_emit_is_guarded_by_enabled():
    sites, unguarded = 0, []
    for path, tree in _modules():
        parents = _parents(tree)
        for node in ast.walk(tree):
            if not _is_trace_emit(node):
                continue
            sites += 1
            ancestor = parents.get(node)
            while ancestor is not None and not (
                isinstance(ancestor, ast.If) and _tests_enabled(ancestor.test)
            ):
                ancestor = parents.get(ancestor)
            if ancestor is None:
                unguarded.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert sites >= 19
    assert unguarded == []


def test_only_the_kernel_assigns_now():
    writers = []
    for path, tree in _modules():
        if path == KERNEL:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute) and leaf.attr == "now":
                        writers.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert writers == []


def test_trace_enabled_after_build_records_every_entry(
    monkeypatch, tmp_path, registry
):
    # Four severe homes, two episodes each, through the per-home oracle,
    # which turns its recorder on only after the deployment is built.
    # Count and digest of every entry were taken before the emit sites
    # learned to test ``enabled``.
    spec = FleetSpec(
        adl_name="tea-making", homes=4, seed=3, episodes_per_home=2,
        training_episodes=40, seed_classes=2, shard_size=4,
        max_severity=1.0,
    )
    definition = registry.get("tea-making")
    systems = []
    build = oracle_fleet.build_home_deployment

    def capture(*args, **kwargs):
        systems.append(build(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(oracle_fleet, "build_home_deployment", capture)
    cache = PolicyCache(str(tmp_path / "cache"))
    config = CoReDAConfig(seed=spec.seed)
    digest = hashlib.sha256()
    categories = set()
    for home in spec.expand(definition):
        oracle_fleet.simulate_home(
            definition, home, config, spec.episodes_per_home,
            spec.training_episodes, cache,
        )
        for entry in systems[-1].trace:
            categories.add(entry.category.split(".")[0])
            digest.update(repr(
                (entry.time, entry.category, sorted(entry.payload.items()))
            ).encode())
    assert len(systems) == spec.homes
    assert categories >= {"node", "base", "radio", "sensing", "planning",
                          "reminder", "display", "resident"}
    assert sum(len(system.trace) for system in systems) == 537
    assert digest.hexdigest() == (
        "24e6cd8b9efc2f383b3256e5a070493eb8ca0943bd8ec2ce1e7358c8f1896753"
    )
