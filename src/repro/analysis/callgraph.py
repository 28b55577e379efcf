"""A conservative call graph over the :class:`ProjectIndex`.

Edges are *resolved where the source is explicit* and
*over-approximated where it is not*:

* ``helper(...)`` -- a bare name resolves to the module-level ``def``
  of the same module, else to the import it was bound by
  (``from m import helper``).
* ``alias.helper(...)`` -- an attribute call on an imported module
  alias resolves into that module.
* ``self.helper(...)`` -- resolves to the method of the enclosing
  class.
* ``obj.helper(...)`` -- dynamic dispatch; resolves to *every*
  indexed method named ``helper`` (the by-name fallback).  This
  over-approximation is the right direction for the dataflow rules:
  PAR002 asks "could worker code reach a global write?", and must
  answer yes unless the graph proves otherwise.

The graph is demand-built once per lint run and shared by every
cross-module rule; like the index classes it is registered in the
PERF001 hot-path manifest.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.analysis.core import dotted_name
from repro.analysis.index import FunctionInfo, ProjectIndex

__all__ = ["CallGraph", "CallSite"]

FuncKey = Tuple[str, str]


class CallSite:
    """One call expression linking a caller to resolved callees."""

    __slots__ = ("caller", "node", "callees")

    def __init__(
        self,
        caller: FunctionInfo,
        node: ast.Call,
        callees: Tuple[FunctionInfo, ...],
    ) -> None:
        self.caller = caller
        self.node = node
        self.callees = callees

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        targets = ",".join(c.qualname for c in self.callees)
        return f"CallSite({self.caller.qualname} -> {targets})"


class CallGraph:
    """Call sites and callee adjacency over every indexed function."""

    __slots__ = ("project", "sites", "_callees")

    def __init__(self, project: ProjectIndex) -> None:
        self.project = project
        #: Every call site, grouped by calling function.
        self.sites: Dict[FuncKey, List[CallSite]] = {}
        self._callees: Dict[FuncKey, List[FuncKey]] = {}
        for info in project.iter_functions():
            self._link_function(info)

    # ------------------------------------------------------------------
    # construction

    def _link_function(self, info: FunctionInfo) -> None:
        sites: List[CallSite] = []
        for node in _own_calls(info.node):
            callees = tuple(self.resolve_call(info, node))
            site = CallSite(info, node, callees)
            sites.append(site)
            for callee in callees:
                self._callees.setdefault(info.key, []).append(callee.key)
        self.sites[info.key] = sites

    def resolve_call(
        self, caller: FunctionInfo, call: ast.Call
    ) -> List[FunctionInfo]:
        """The indexed functions this call could dispatch to."""
        project = self.project
        module = project.modules.get(caller.module_path)
        if module is None:  # pragma: no cover - defensive
            return []
        func = call.func
        if isinstance(func, ast.Name):
            # Same-module def first, then the import table.
            target = project.functions.get((caller.module_path, func.id))
            if target is not None and target.owner_class is None:
                return [target]
            symbols = project.symbols[caller.module_path]
            imported = symbols.imported_from(func.id)
            if imported is not None:
                member = project.module_member(*imported)
                return [member] if member is not None else []
            return []
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                base = func.value.id
                if base == "self" and caller.owner_class is not None:
                    owner = project.classes.get(
                        (caller.module_path, caller.owner_class)
                    )
                    if owner is not None and func.attr in owner.methods:
                        return [owner.methods[func.attr]]
                symbols = project.symbols[caller.module_path]
                alias = symbols.modules.get(base)
                if alias is not None:
                    member = project.module_member(alias, func.attr)
                    return [member] if member is not None else []
            dotted = dotted_name(func)
            if dotted is not None and "." in dotted:
                module_part, _, attr = dotted.rpartition(".")
                symbols = project.symbols[caller.module_path]
                alias = symbols.modules.get(module_part.split(".")[0])
                if alias is not None:
                    member = project.module_member(
                        alias + module_part[len(module_part.split(".")[0]):],
                        attr,
                    )
                    if member is not None:
                        return [member]
            # Dynamic dispatch: every method with this name, methods
            # only (module-level functions are never attribute-called
            # off an object in this codebase's idiom).
            return [
                target
                for target in self.project.functions_named(func.attr)
                if target.owner_class is not None
            ]
        return []

    # ------------------------------------------------------------------
    # queries

    def reachable_from(
        self, roots: Sequence[FunctionInfo]
    ) -> List[FunctionInfo]:
        """Every function transitively callable from ``roots``
        (roots included), in deterministic key order."""
        seen: Dict[FuncKey, FunctionInfo] = {}
        stack = list(roots)
        while stack:
            info = stack.pop()
            if info.key in seen:
                continue
            seen[info.key] = info
            for callee_key in self._callees.get(info.key, ()):
                callee = self.project.functions.get(callee_key)
                if callee is not None and callee.key not in seen:
                    stack.append(callee)
        return [seen[key] for key in sorted(seen)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = sum(len(v) for v in self._callees.values())
        return f"CallGraph(functions={len(self.sites)}, edges={edges})"


def _own_calls(function: ast.AST) -> Iterator[ast.Call]:
    """Call expressions in ``function``'s own body (nested defs,
    lambdas and classes own their calls)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))
