"""Pass 1 of the whole-program analyzer: the :class:`ProjectIndex`.

The per-module rules (DET*/SIM001-2/PERF001) see one
:class:`~repro.analysis.core.ModuleContext` at a time, which is
exactly what made the PR 8 stale-version bug invisible to them: the
buffer write sat in one module, the version contract in another.  The
cross-module rules (VER001, PAR00x) instead run against this index --
a symbol table over *every* linted module built in a single pass:

* every module's import aliases (``import x as y`` / ``from x import f``),
* every function and method with its qualified name, nesting and
  owning class,
* every class with its method table,
* an attribute-write index (``attr name -> write sites``), which is
  how VER001 finds Q-buffer mutations without hard-coding modules.

The index is deliberately *syntactic*: it resolves what the source
spells out (module-level names, import aliases, ``self.`` methods)
and leaves dynamic dispatch to the conservative by-name fallback in
:mod:`repro.analysis.callgraph`.  These classes are allocated per
function/class of the tree on every lint run (the tier-1 gate and the
``BENCH_lint`` budget both lint the full tree), so they are
registered in the PERF001 hot-path manifest and declare
``__slots__``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.core import ModuleContext

__all__ = [
    "AttributeWrite",
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


class AttributeWrite:
    """One mutation site of an instance attribute (``x.attr[...] = v``,
    ``x.attr.update(...)`` or ``x.attr = v``)."""

    __slots__ = ("attr", "kind", "node", "function")

    def __init__(
        self,
        attr: str,
        kind: str,
        node: ast.AST,
        function: Optional[FunctionInfo],
    ) -> None:
        self.attr = attr
        #: "subscript" (item store), "mutate" (mutating method call)
        #: or "rebind" (whole-attribute assignment).
        self.kind = kind
        self.node = node
        self.function = function


#: Method names that mutate a dict/list container in place.  Used by
#: the attribute-write index so VER001 sees ``q._flat.extend(...)`` the
#: same way it sees ``q._flat[off] = v``.
_MUTATING_METHODS = frozenset(
    {"update", "setdefault", "pop", "popitem", "clear",
     "append", "extend", "insert", "remove"}
)


class ProjectIndex:
    """The whole-program symbol table (pass 1 of the analyzer).

    Built once per lint run over every parsed module, then shared by
    all cross-module rules and the call graph.  Lookups:

    * :attr:`functions` -- ``(module path, qualname) -> FunctionInfo``
    * :attr:`classes` -- ``(module path, class name) -> ClassInfo``
    * :meth:`functions_named` -- conservative by-name lookup
    * :meth:`attribute_writes` -- every write site of an attribute name
    * :meth:`module_member` -- resolve ``module.symbol`` to a function
    """

    __slots__ = (
        "modules",
        "symbols",
        "functions",
        "classes",
        "_by_name",
        "_by_module_name",
        "_attr_writes",
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
        self._attr_writes: Dict[str, List[AttributeWrite]] = {}
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
                self._collect_attr_writes(stmt, info)
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

    def _collect_attr_writes(
        self, function: ast.AST, info: FunctionInfo
    ) -> None:
        """Record every ``x.attr`` mutation inside ``function``'s own
        body (nested defs record under their own FunctionInfo)."""
        for node in _own_nodes(function):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Attribute
                    ):
                        self._record_write(
                            target.value.attr, "subscript", node, info
                        )
                    elif isinstance(target, ast.Attribute):
                        self._record_write(target.attr, "rebind", node, info)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                    and isinstance(func.value, ast.Attribute)
                ):
                    self._record_write(
                        func.value.attr, "mutate", node, info
                    )

    def _record_write(
        self, attr: str, kind: str, node: ast.AST,
        info: Optional[FunctionInfo],
    ) -> None:
        self._attr_writes.setdefault(attr, []).append(
            AttributeWrite(attr, kind, node, info)
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

    def attribute_writes(self, attr: str) -> List[AttributeWrite]:
        """Every recorded write site of ``attr`` across the project."""
        return self._attr_writes.get(attr, [])

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
