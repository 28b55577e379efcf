"""SIM00x: rules guarding the simulation kernel's contracts.

* **SIM001** -- a :class:`repro.sim.process.Process` generator body
  may only yield the kernel's directives (``Timeout`` / ``Wait``).
  Yielding anything else raises at *dispatch* time, possibly hours
  into a long experiment; the linter catches it at review time.
* **SIM002** -- snapshot/restore is how the sensing fast path rolls a
  node back over an invalidated sample block.  A class that grows a
  ``capture_*``/``snapshot_*`` method without the matching
  ``restore_*`` cannot participate in rollback, which surfaces as a
  silent divergence, not an exception.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional

from repro.analysis import manifest
from repro.analysis.core import Finding, ModuleContext, Rule, register

__all__ = ["NonDirectiveYield", "UnpairedSnapshot"]

_SCOPE_NODES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ClassDef,
)


@register
class NonDirectiveYield(Rule):
    rule_id = "SIM001"
    severity = "error"
    description = (
        "process generator bodies (functions yielding Timeout/Wait) may "
        "only yield kernel-recognised directives"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for function in _functions(module.tree):
            yields = list(_own_yields(function))
            if not any(
                _is_directive_call(node.value) for node in yields
            ):
                continue  # not a process body
            for node in yields:
                message = _yield_violation(node)
                if message:
                    yield self.finding(module, node, message)


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_yields(function: ast.AST) -> Iterator[ast.Yield]:
    """Yield expressions belonging to ``function`` itself.

    Nested functions, lambdas and classes open their own generator
    scopes, so their yields are not this function's.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            continue
        if isinstance(node, ast.Yield):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _is_directive_call(value: Optional[ast.AST]) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Name):
        return func.id in manifest.PROCESS_DIRECTIVES
    if isinstance(func, ast.Attribute):
        return func.attr in manifest.PROCESS_DIRECTIVES
    return False


def _yield_violation(node: ast.Yield) -> Optional[str]:
    """Why this yield cannot be a kernel directive, or ``None``.

    Names and attribute loads get the benefit of the doubt (they may
    hold a directive built elsewhere); literals, expressions and
    calls to non-directive constructors cannot.
    """
    value = node.value
    if value is None:
        return (
            "bare yield in a process body: the kernel only accepts "
            "Timeout/Wait directives"
        )
    if _is_directive_call(value):
        return None
    if isinstance(value, ast.Constant):
        return (
            f"process body yields constant {value.value!r}; the kernel "
            "only accepts Timeout/Wait directives"
        )
    if isinstance(
        value, (ast.Tuple, ast.List, ast.Dict, ast.Set, ast.JoinedStr)
    ):
        return (
            "process body yields a literal; the kernel only accepts "
            "Timeout/Wait directives"
        )
    if isinstance(value, (ast.BinOp, ast.UnaryOp, ast.Compare, ast.BoolOp)):
        return (
            "process body yields an expression result; the kernel only "
            "accepts Timeout/Wait directives"
        )
    if isinstance(value, ast.Call):
        return (
            "process body yields a non-directive call result; the kernel "
            "only accepts Timeout/Wait directives"
        )
    return None


@register
class UnpairedSnapshot(Rule):
    rule_id = "SIM002"
    severity = "warning"
    description = (
        "snapshot/restore methods must be paired per class: a "
        "capture_*/snapshot_* method needs the matching restore_*"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name: stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for name in sorted(methods):
                expected = _expected_restore(name)
                if expected is not None and expected not in methods:
                    yield self.finding(
                        module,
                        methods[name],
                        f"{node.name}.{name} has no matching "
                        f"{expected}(); a snapshot that cannot be "
                        "restored breaks rollback",
                    )


def _expected_restore(method_name: str) -> Optional[str]:
    if method_name in ("capture", "snapshot"):
        return "restore"
    for prefix in ("capture_", "snapshot_"):
        if method_name.startswith(prefix):
            return "restore_" + method_name[len(prefix):]
    return None
