"""Visitor core of the determinism / sim-safety static analyzer.

Every rule (:class:`Rule`) walks one parsed module
(:class:`ModuleContext`) and yields :class:`Finding` s.

A registry maps rule IDs to singleton rule instances; the driver
functions (:func:`lint_source`, :func:`lint_paths`) apply inline
suppressions and fold everything into a :class:`LintReport`.

Suppressions
------------
A finding is suppressed by a comment on the reported line::

    start = time.perf_counter()  # repro: allow[DET002] timing display

The comment may sit on *any line of the statement* that produced the
finding -- the closing-paren line of a multi-line call works -- and,
for findings anchored on a ``def``/``class`` header, on any of its
decorator lines.  Multiple rule IDs may be listed, comma-separated:
``# repro: allow[DET001,DET004] fixture``.  Anything after the
closing bracket is free-form justification.  Suppressed findings are
still collected (and shown in the JSON report) but do not fail the
lint gate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "Finding",
    "LintReport",
    "LintUsageError",
    "ModuleContext",
    "Rule",
    "UnknownRuleError",
    "all_rule_ids",
    "dotted_name",
    "iter_python_files",
    "lint_modules",
    "lint_paths",
    "lint_source",
    "register",
    "resolve_rules",
    "rule_families",
]

SUPPRESSION_PATTERN = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")


def _collect_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule IDs suppressed by a comment on it."""
    table: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = SUPPRESSION_PATTERN.search(token.string)
            if not match:
                continue
            ids = {
                part.strip()
                for part in match.group(1).split(",")
                if part.strip()
            }
            if ids:
                table.setdefault(token.start[0], set()).update(ids)
    except tokenize.TokenError:  # pragma: no cover - parse guards first
        pass
    return table

SEVERITIES = ("error", "warning")

_FAMILY_PATTERN = re.compile(r"^[A-Z]+")


class LintUsageError(Exception):
    """The analyzer was invoked incorrectly (bad path, bad source)."""


class UnknownRuleError(LintUsageError):
    """A rule ID or family was requested that nothing registered."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    column: int
    rule: str
    severity: str
    message: str
    suppressed: bool = False
    #: True when a committed baseline claims this finding as known
    #: debt; baselined findings do not fail the gate.
    baselined: bool = False

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule)


class ModuleContext:
    """One parsed module plus the lookups every rule needs.

    The context owns the AST, the per-line suppression table and the
    set of imported module names (used by scope-sensitive rules such
    as DET003).  ``path`` is kept verbatim for reporting; rules match
    policy against :attr:`posix_path`.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = str(path)
        self.posix_path = self.path.replace("\\", "/")
        self.source = source
        try:
            self.tree = ast.parse(source)
        except SyntaxError as exc:
            raise LintUsageError(f"{path}: cannot parse: {exc}") from exc
        self.suppressions = _collect_suppressions(source)
        self._imports: Optional[FrozenSet[str]] = None
        self._span_suppressions: Optional[Dict[int, Set[str]]] = None

    @property
    def imports(self) -> FrozenSet[str]:
        """Dotted module names this module imports (top-level walk)."""
        if self._imports is None:
            names: Set[str] = set()
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names.add(node.module)
            self._imports = frozenset(names)
        return self._imports

    def imports_prefix(self, prefix: str) -> bool:
        """True if any import is ``prefix`` or a submodule of it."""
        return any(
            name == prefix or name.startswith(prefix + ".")
            for name in self.imports
        )

    def suppressed_rules(self, line: int) -> FrozenSet[str]:
        """Rule IDs suppressed for a finding reported on ``line``.

        A suppression comment reaches a finding when it sits on the
        finding's own line, on any line of the (multi-line) statement
        spanning it, or -- for ``def``/``class`` findings -- on one of
        the decorator/header lines.
        """
        direct = self.suppressions.get(line, set())
        spanned = self._statement_spans().get(line, set())
        if not direct and not spanned:
            return frozenset()
        return frozenset(direct | spanned)

    def _statement_spans(self) -> Dict[int, Set[str]]:
        """Suppressions propagated across multi-line statement spans.

        For every statement whose span (decorators + header for
        compound statements, the whole extent for simple ones) holds
        a suppression comment, every line of that span inherits the
        suppressed rule IDs.  Comment lines *between* statements stay
        inert, which keeps "comment on the previous line" a non-
        suppression, as before.
        """
        if self._span_suppressions is not None:
            return self._span_suppressions
        table: Dict[int, Set[str]] = {}
        raw = self.suppressions
        if raw:
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.stmt):
                    continue
                lines = _statement_span(node)
                ids: Set[str] = set()
                for line in lines:
                    ids.update(raw.get(line, ()))
                if ids:
                    for line in lines:
                        table.setdefault(line, set()).update(ids)
        self._span_suppressions = table
        return table


def _statement_span(node: ast.stmt) -> range:
    """The line range a suppression on this statement covers."""
    start = node.lineno
    end = getattr(node, "end_lineno", None) or node.lineno
    decorators = getattr(node, "decorator_list", None)
    if decorators:
        start = min(start, min(d.lineno for d in decorators))
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        # Compound statement: the span is the header (decorators +
        # signature), not the whole body -- a comment deep inside a
        # function must not silence findings on its ``def`` line.
        end = body[0].lineno - 1
    return range(start, max(start, end) + 1)


class Rule:
    """Base class: subclasses set the class attributes and ``check``."""

    rule_id: str = ""
    severity: str = "error"
    description: str = ""

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """A :class:`Finding` of this rule anchored at ``node``."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            severity=self.severity,
            message=message,
        )


@dataclass(frozen=True)
class LintReport:
    """Every finding of one lint run, suppressed ones included."""

    findings: Tuple[Finding, ...]
    files_checked: int

    @property
    def active(self) -> Tuple[Finding, ...]:
        """Findings that fail the gate (not suppressed/baselined)."""
        return tuple(
            f for f in self.findings if not f.suppressed and not f.baselined
        )

    @property
    def suppressed(self) -> Tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.suppressed)

    @property
    def baselined(self) -> Tuple[Finding, ...]:
        return tuple(
            f for f in self.findings if f.baselined and not f.suppressed
        )


# --------------------------------------------------------------------
# Registry

_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and register a :class:`Rule`."""
    rule = rule_cls()
    if not rule.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule.severity not in SEVERITIES:
        raise ValueError(
            f"{rule.rule_id}: severity must be one of {SEVERITIES}"
        )
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return rule_cls


def _load_rules() -> None:
    # The rule modules register themselves on import; importing here
    # (not at module top) keeps core free of circular imports.
    from repro.analysis import rules  # noqa: F401


def all_rule_ids() -> List[str]:
    """Every registered rule ID, sorted."""
    _load_rules()
    return sorted(_REGISTRY)


def rule_families() -> List[str]:
    """The registered rule families (leading-letter prefixes), sorted:
    ``["DET", "PERF", "SIM", "VER"]`` for the shipped pack."""
    _load_rules()
    families = set()
    for rule_id in _REGISTRY:
        match = _FAMILY_PATTERN.match(rule_id)
        if match:
            families.add(match.group(0))
    return sorted(families)


def resolve_rules(rule_ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """The rule instances for ``rule_ids`` (all rules when ``None``).

    Each requested token may be an exact rule ID (``DET001``) or a
    family prefix (``DET`` selects every ``DET*`` rule).  Unknown
    tokens raise :class:`UnknownRuleError` naming the valid families.
    """
    _load_rules()
    if rule_ids is None:
        return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]
    selected: Set[str] = set()
    unknown: List[str] = []
    for token in rule_ids:
        if token in _REGISTRY:
            selected.add(token)
            continue
        matches = [
            rule_id for rule_id in _REGISTRY if rule_id.startswith(token)
        ] if token else []
        if matches:
            selected.update(matches)
        else:
            unknown.append(token)
    if unknown:
        raise UnknownRuleError(
            f"unknown rule(s) or famil(ies): {', '.join(sorted(set(unknown)))} "
            f"(families: {', '.join(rule_families())}; "
            f"rules: {', '.join(sorted(_REGISTRY))})"
        )
    return [_REGISTRY[rule_id] for rule_id in sorted(selected)]


# --------------------------------------------------------------------
# Drivers


def lint_modules(
    modules: Sequence[ModuleContext],
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Apply every selected rule to each module; returns sorted findings.

    Suppressions are resolved per finding against the module that
    reported it.
    """
    rules = resolve_rules(rule_ids)
    out: List[Finding] = []
    for module in modules:
        for rule in rules:
            for found in rule.check(module):
                if found.rule in module.suppressed_rules(found.line):
                    found = replace(found, suppressed=True)
                out.append(found)
    return sorted(out, key=Finding.sort_key)


def lint_source(
    source: str,
    path: str = "<string>",
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one module given as a string; returns sorted findings."""
    return lint_modules([ModuleContext(path, source)], rule_ids)


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files and directories into a deduplicated, sorted list.

    Overlapping arguments (``repro lint src src/repro``, a file plus
    the directory containing it, relative/absolute spellings of one
    tree) contribute each file **once** -- deduplication is by
    resolved path -- and the result is sorted by resolved path, so
    the file order (and therefore the report) is identical no matter
    how the argument list spells or orders the inputs.
    """
    out: List[Tuple[str, Path]] = []
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterator[Path] = iter(sorted(path.rglob("*.py")))
        elif path.is_file():
            candidates = iter([path])
        else:
            raise LintUsageError(f"no such file or directory: {raw}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append((resolved.as_posix(), candidate))
    out.sort(key=lambda pair: pair[0])
    return [candidate for _, candidate in out]


def lint_paths(
    paths: Sequence[str],
    rule_ids: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint files/directories; returns the aggregate report."""
    files = iter_python_files(paths)
    modules = [
        ModuleContext(str(file), file.read_text("utf-8")) for file in files
    ]
    findings = lint_modules(modules, rule_ids)
    return LintReport(
        findings=tuple(findings),
        files_checked=len(files),
    )


# --------------------------------------------------------------------
# Shared AST helpers


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
