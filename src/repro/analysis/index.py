"""Pass 1 of the whole-program analyzer: the :class:`ProjectIndex`.

The per-module rules (DET*, SIM*, PERF001, VER001) see one
:class:`~repro.analysis.core.ModuleContext` at a time.  The
cross-module rules (PAR001-2) need to follow a callable or a global
write across imports, so they run against this index -- a symbol
table over *every* linted module built in a single pass:

* every module's import aliases (``import x as y`` / ``from x import f``),
* every function and method with its qualified name, nesting and
  owning class,
* every class with its method table.

The index is deliberately *syntactic*: it resolves what the source
spells out (module-level names, import aliases, ``self.`` methods)
and leaves dynamic dispatch to the conservative by-name fallback in
:mod:`repro.analysis.callgraph`.  These classes are allocated per
function/class of the tree on every lint run (the tier-1 gate lints
the full tree and holds it to a wall-clock budget), so they are
registered in the PERF001 hot-path manifest and declare
``__slots__``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.core import ModuleContext

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleSymbols",
    "ProjectIndex",
    "module_dotted_name",
]


def module_dotted_name(posix_path: str) -> str:
    """The importable dotted name a source path most likely maps to.

    ``src/repro/rl/dense.py -> repro.rl.dense``; package
    ``__init__.py`` files map to the package itself.  Paths outside a
    recognisable root (test fixtures, ``<string>`` sources) fall back
    to their stem, which keeps same-module resolution working even
    when cross-module resolution has nothing to anchor to.
    """
    path = posix_path[:-3] if posix_path.endswith(".py") else posix_path
    parts = [part for part in path.split("/") if part not in (".", "")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    elif parts:
        parts = parts[-1:]
    return ".".join(parts) if parts else "<module>"


class ModuleSymbols:
    """One module's import aliases, resolved to dotted names.

    ``modules`` maps a local name to the module it denotes
    (``import numpy as np`` -> ``{"np": "numpy"}``); ``symbols`` maps
    a local name to ``(defining module, original name)``
    (``from repro.evalx.parallel import Cell as C`` ->
    ``{"C": ("repro.evalx.parallel", "Cell")}``).
    """

    __slots__ = ("modules", "symbols")

    def __init__(self) -> None:
        self.modules: Dict[str, str] = {}
        self.symbols: Dict[str, Tuple[str, str]] = {}

    def collect(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.modules[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.symbols[local] = (node.module, alias.name)

    def imported_from(self, local_name: str) -> Optional[Tuple[str, str]]:
        """``(module, original name)`` for an imported symbol, or None."""
        return self.symbols.get(local_name)


class FunctionInfo:
    """One function or method, with enough context to resolve calls."""

    __slots__ = (
        "module_path",
        "module_name",
        "name",
        "qualname",
        "node",
        "owner_class",
        "is_nested",
    )

    def __init__(
        self,
        module_path: str,
        module_name: str,
        qualname: str,
        node: ast.AST,
        owner_class: Optional[str],
        is_nested: bool,
    ) -> None:
        self.module_path = module_path
        self.module_name = module_name
        self.name = node.name
        self.qualname = qualname
        self.node = node
        self.owner_class = owner_class
        self.is_nested = is_nested

    @property
    def key(self) -> Tuple[str, str]:
        """The node key used by the call graph: (module path, qualname)."""
        return (self.module_path, self.qualname)

    @property
    def is_module_level(self) -> bool:
        """True for a plain top-level ``def`` (picklable by reference)."""
        return self.owner_class is None and not self.is_nested

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.module_name}.{self.qualname})"


class ClassInfo:
    """One class definition plus its method table."""

    __slots__ = ("module_path", "module_name", "name", "node", "methods")

    def __init__(
        self, module_path: str, module_name: str, node: ast.ClassDef
    ) -> None:
        self.module_path = module_path
        self.module_name = module_name
        self.name = node.name
        self.node = node
        self.methods: Dict[str, FunctionInfo] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.module_name}.{self.name})"


class ProjectIndex:
    """The whole-program symbol table (pass 1 of the analyzer).

    Built once per lint run over every parsed module, then shared by
    all cross-module rules and the call graph.  Lookups:

    * :attr:`functions` -- ``(module path, qualname) -> FunctionInfo``
    * :attr:`classes` -- ``(module path, class name) -> ClassInfo``
    * :meth:`functions_named` -- conservative by-name lookup
    * :meth:`module_member` -- resolve ``module.symbol`` to a function
    """

    __slots__ = (
        "modules",
        "symbols",
        "functions",
        "classes",
        "_by_name",
        "_by_module_name",
        "_callgraph",
    )

    def __init__(self, modules: Sequence[ModuleContext]) -> None:
        self.modules: Dict[str, ModuleContext] = {
            module.path: module for module in modules
        }
        self.symbols: Dict[str, ModuleSymbols] = {}
        self.functions: Dict[Tuple[str, str], FunctionInfo] = {}
        self.classes: Dict[Tuple[str, str], ClassInfo] = {}
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        self._by_module_name: Dict[str, List[ModuleContext]] = {}
        self._callgraph = None
        for module in modules:
            self._index_module(module)

    # ------------------------------------------------------------------
    # construction

    def _index_module(self, module: ModuleContext) -> None:
        dotted = module_dotted_name(module.posix_path)
        self._by_module_name.setdefault(dotted, []).append(module)
        symbols = ModuleSymbols()
        symbols.collect(module.tree)
        self.symbols[module.path] = symbols
        self._index_scope(
            module, dotted, module.tree.body, prefix="", owner=None,
            nested=False,
        )

    def _index_scope(
        self,
        module: ModuleContext,
        dotted: str,
        body: Sequence[ast.stmt],
        prefix: str,
        owner: Optional[ClassInfo],
        nested: bool,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + stmt.name
                info = FunctionInfo(
                    module_path=module.path,
                    module_name=dotted,
                    qualname=qualname,
                    node=stmt,
                    owner_class=owner.name if owner is not None else None,
                    is_nested=nested,
                )
                self.functions[info.key] = info
                self._by_name.setdefault(stmt.name, []).append(info)
                if owner is not None and not nested:
                    owner.methods[stmt.name] = info
                self._index_scope(
                    module, dotted, stmt.body, prefix=qualname + ".",
                    owner=None, nested=True,
                )
            elif isinstance(stmt, ast.ClassDef):
                info = ClassInfo(module.path, dotted, stmt)
                self.classes[(module.path, stmt.name)] = info
                self._index_scope(
                    module, dotted, stmt.body, prefix=stmt.name + ".",
                    owner=info, nested=nested,
                )
            elif isinstance(
                stmt, (ast.If, ast.Try, ast.With, ast.For, ast.While)
            ):
                # Conditionally-defined module-level functions (TYPE_
                # CHECKING guards, try/except import fallbacks) still
                # index; their bodies cannot nest deeper surprises
                # than the recursion already handles.
                for inner in ast.iter_child_nodes(stmt):
                    if isinstance(inner, ast.stmt):
                        self._index_scope(
                            module, dotted, [inner], prefix=prefix,
                            owner=owner, nested=nested,
                        )

    # ------------------------------------------------------------------
    # lookups

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every indexed function, in deterministic (module, qualname)
        order."""
        for key in sorted(self.functions):
            yield self.functions[key]

    def functions_named(self, name: str) -> List[FunctionInfo]:
        """Every function/method with this bare name (conservative)."""
        return self._by_name.get(name, [])

    def module_level_function(
        self, module: ModuleContext, name: str
    ) -> Optional[FunctionInfo]:
        """The top-level ``def name`` of ``module``, if any."""
        info = self.functions.get((module.path, name))
        if info is not None and info.is_module_level:
            return info
        return None

    def modules_named(self, dotted: str) -> List[ModuleContext]:
        """The indexed modules whose dotted name is ``dotted``."""
        return self._by_module_name.get(dotted, [])

    def module_member(
        self, dotted_module: str, name: str
    ) -> Optional[FunctionInfo]:
        """Resolve ``dotted_module.name`` to an indexed function.

        Falls back through package ``__init__`` re-exports by
        matching the bare name anywhere under the package when the
        exact module is not indexed.
        """
        for module in self.modules_named(dotted_module):
            info = self.functions.get((module.path, name))
            if info is not None:
                return info
        # Re-export fallback: ``from repro.evalx import run_cells``
        # where run_cells lives in repro.evalx.parallel.
        for info in self.functions_named(name):
            if info.is_module_level and info.module_name.startswith(
                dotted_module + "."
            ):
                return info
        return None

    def callgraph(self):
        """The (lazily built, cached) conservative call graph."""
        if self._callgraph is None:
            from repro.analysis.callgraph import CallGraph

            self._callgraph = CallGraph(self)
        return self._callgraph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProjectIndex(modules={len(self.modules)}, "
            f"functions={len(self.functions)}, classes={len(self.classes)})"
        )


def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
    """Walk ``function``'s body without descending into nested defs,
    lambdas or classes (they own their statements)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
