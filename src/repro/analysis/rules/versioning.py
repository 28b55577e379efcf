"""VER001: every Q-buffer mutation must bump the version counter.

The batched-inference layer (PR 8) memoizes greedy policies and
revalidates them against a monotone ``version`` counter on each
Q-table.  The contract is global: *any* statement that mutates a
table's flat buffer (``_flat``) -- directly, through a local alias
(``flat = q._flat``), or inside a helper reachable through the call
graph -- must be followed by a
``version`` bump on every structural path, or memoized predictions go
stale under online adaptation.  PR 8 shipped exactly this bug in the
fused dense learner paths; the single-module rule pack could not see
it because the write and the contract live in different modules.

The rule is a :class:`~repro.analysis.core.ProjectRule`:

1. For every indexed function, collect *write statements* (subscript
   stores / in-place mutating calls on a versioned buffer attribute
   or a local alias of one; whole-attribute rebinds are exempt) and
   *bump statements* (assignments to ``.version``, or calls that
   resolve to a function whose own body bumps).
2. A write is **covered** when a bump executes after it on every
   fall-through path of the function
   (:meth:`~repro.analysis.core.StatementOrder.covers_after` -- a
   bump after the enclosing ``if``/``else`` covers writes in both
   branches; a bump in only one branch does not).
3. A function left with uncovered writes may still be **absolved by
   its callers**: if every call site into it is itself covered by a
   bump in the calling function (transitively, cycles treated as
   uncovered), the contract holds at a coarser granularity -- the
   idiom of ``DenseTraces.apply_update`` callers.  Otherwise each
   uncovered write is a finding.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis import manifest
from repro.analysis.core import (
    Finding,
    ProjectRule,
    StatementOrder,
    register,
)
from repro.analysis.index import FunctionInfo, ProjectIndex, _own_nodes

__all__ = ["StaleVersionWrite"]

FuncKey = Tuple[str, str]


class _FunctionFacts:
    """Per-function VER001 facts: writes, bumps, statement order."""

    __slots__ = ("info", "order", "writes", "bumps")

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.order = StatementOrder(info.node)
        #: (statement, anchor node, buffer attr) per uncoverable write.
        self.writes: List[Tuple[ast.stmt, ast.AST, str]] = []
        #: Statements that bump ``.version`` (directly or via helper).
        self.bumps: List[ast.stmt] = []


@register
class StaleVersionWrite(ProjectRule):
    rule_id = "VER001"
    severity = "error"
    description = (
        "statements mutating a Q-table buffer (_flat) must bump the "
        "version counter on every path, directly or in every caller"
    )

    def check_project(self, project: ProjectIndex) -> Iterable[Finding]:
        graph = project.callgraph()
        facts: Dict[FuncKey, _FunctionFacts] = {}
        bumpers: Set[FuncKey] = set()
        for info in project.iter_functions():
            fact = _collect_facts(info)
            facts[info.key] = fact
            if fact.bumps:
                bumpers.add(info.key)

        # A call to a function that itself bumps counts as a bump
        # statement at the call site (one level of helper indirection,
        # e.g. ``self._touch()``).
        for key, fact in facts.items():
            for site in graph.sites.get(key, ()):
                if any(c.key in bumpers for c in site.callees):
                    stmt = fact.order.enclosing(site.node)
                    if stmt is not None:
                        fact.bumps.append(stmt)

        uncovered: Dict[FuncKey, List[Tuple[ast.stmt, ast.AST, str]]] = {}
        for key, fact in facts.items():
            bad = [
                write
                for write in fact.writes
                if not any(
                    fact.order.covers_after(write[0], bump)
                    for bump in fact.bumps
                )
            ]
            if bad:
                uncovered[key] = bad

        memo: Dict[FuncKey, bool] = {}

        def absolved(key: FuncKey, stack: Set[FuncKey]) -> bool:
            """True when every path into ``key`` bumps after the call."""
            if key in memo:
                return memo[key]
            if key in stack or len(stack) > 12:
                return False  # cycle / runaway depth: stay conservative
            sites = graph.callers_of(key)
            if not sites:
                memo[key] = False
                return False
            ok = True
            for site in sites:
                caller = facts.get(site.caller.key)
                if caller is None:
                    ok = False
                    break
                stmt = caller.order.enclosing(site.node)
                if stmt is not None and any(
                    caller.order.covers_after(stmt, bump)
                    for bump in caller.bumps
                ):
                    continue
                if absolved(site.caller.key, stack | {key}):
                    continue
                ok = False
                break
            memo[key] = ok
            return ok

        findings: List[Finding] = []
        for key in sorted(uncovered):
            if absolved(key, set()):
                continue
            fact = facts[key]
            for _, anchor, attr in uncovered[key]:
                findings.append(
                    self.finding_at(
                        fact.info.module_path,
                        anchor,
                        f"{fact.info.qualname} mutates `{attr}` without "
                        f"bumping `{manifest.VERSION_COUNTER}` on every "
                        "path (no caller bumps after the call either); "
                        "memoized policies will serve stale predictions",
                    )
                )
        return findings


def _collect_facts(info: FunctionInfo) -> _FunctionFacts:
    fact = _FunctionFacts(info)
    buffers = manifest.VERSIONED_BUFFER_ATTRS
    aliases = _buffer_aliases(info.node, buffers)
    for node in _own_nodes(info.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                attr = _buffer_store(target, buffers, aliases)
                if attr is not None:
                    _note_write(fact, node, attr)
                if _is_version_bump(target):
                    stmt = fact.order.enclosing(node)
                    if stmt is not None:
                        fact.bumps.append(stmt)
        elif isinstance(node, ast.Call):
            attr = _mutating_call_target(node, buffers, aliases)
            if attr is not None:
                _note_write(fact, node, attr)
    return fact


def _note_write(fact: _FunctionFacts, node: ast.AST, attr: str) -> None:
    stmt = fact.order.enclosing(node)
    if stmt is not None:
        fact.writes.append((stmt, node, attr))


def _buffer_aliases(
    function: ast.AST, buffers: Tuple[str, ...]
) -> Set[str]:
    """Local names bound *from* a versioned buffer attribute
    (``flat = q._flat``).  A fresh local list (``flat = [0] * n`` in
    ``_grow``) is not an alias -- writes into it never reach a live
    table."""
    aliases: Set[str] = set()
    for node in _own_nodes(function):
        if not isinstance(node, ast.Assign):
            continue
        if not (
            isinstance(node.value, ast.Attribute)
            and node.value.attr in buffers
        ):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                aliases.add(target.id)
    return aliases


def _buffer_store(
    target: ast.AST, buffers: Tuple[str, ...], aliases: Set[str]
) -> Optional[str]:
    """The buffer attr a subscript store hits, else ``None``.

    Whole-attribute rebinds (``self._flat = fresh``) are exempt: they
    install a new buffer rather than mutating the live one, and the
    ``copy()``/``__init__`` idiom depends on that.
    """
    if not isinstance(target, ast.Subscript):
        return None
    base = target.value
    if isinstance(base, ast.Attribute) and base.attr in buffers:
        return base.attr
    if isinstance(base, ast.Name) and base.id in aliases:
        return base.id
    return None


def _mutating_call_target(
    call: ast.Call, buffers: Tuple[str, ...], aliases: Set[str]
) -> Optional[str]:
    """The buffer attr an in-place mutating method call hits."""
    from repro.analysis.index import _MUTATING_METHODS

    func = call.func
    if not (
        isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS
    ):
        return None
    base = func.value
    if isinstance(base, ast.Attribute) and base.attr in buffers:
        return base.attr
    if isinstance(base, ast.Name) and base.id in aliases:
        return base.id
    return None


def _is_version_bump(target: ast.AST) -> bool:
    return (
        isinstance(target, ast.Attribute)
        and target.attr == manifest.VERSION_COUNTER
    )
