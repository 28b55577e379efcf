"""Reach audit: the ``src/repro`` functions that no workload calls.

Run with ``python -m tests.reach`` (or ``make reach``).  It records,
through ``sys.setprofile``, every ``src/repro`` function called while
it runs the full report at ``--jobs`` 1 and 2; a fleet cold, warm and
at 5 episodes, each at ``--jobs`` 1 and 2; every CLI verb, ``--config``
included; and every example.  It prints each function never called as
``path:line name``, then a summary line.  Forked workers' calls are
not recorded: each ``--jobs 2`` root also runs at ``--jobs 1``, which
calls the same worker code in this process.  Outputs go to a temporary
directory; the tree is never edited.

``python -m tests.reach --knobs`` (or ``make knobs``) is the parameter
census.  It runs the same roots plus each benchmark workload (its
``FleetSpec`` capped at 40 homes, at its jobs, set up as the benchmark
sets it up) and records, for every called ``src/repro`` function, which
defaulted parameters ever receive a value other than their default.
A name-matched AST scan of ``src/repro``, ``tests``, ``examples`` and
``bench`` then tags each parameter that no root sets: "no call site"
(no call passes it), "tests only" (only calls outside ``src/repro``
pass it) or "src passes the default" (some call in ``src/repro``
passes it, always with the default's value).  ``Cell(fn, args,
kwargs)`` counts as a call of ``fn``.

``python -m tests.reach --lines`` (or ``make lines``) is the statement
audit.  It runs the same roots and workloads as ``--knobs`` under
``sys.settrace`` and lists every statement of a called ``src/repro``
function that never ran, as ``path:line qualname``.  A statement is
judged by its AST span: a simple statement ran when any of its lines
ran, and a compound one (``if``, ``for``, ``try``, a nested ``def``
...) when its header lines ran; its body's statements are judged on
their own.  Docstrings, ``global`` and bare annotations compile to no
code and are not counted.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import gc
import inspect
import os
import runpy
import sys
import tempfile
import threading
import time
import types
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))
#: Where the census looks for call sites, first the program's own.
AREAS = ("src/repro", "tests", "examples", "bench")
#: Comprehensions compile to code objects of their own; they are part
#: of the function that holds them, not functions.
_INLINE = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _key(code):
    return os.path.realpath(code.co_filename), code.co_firstlineno, code.co_qualname


def functions():
    """Every function of ``src/repro``, by (file, first line, qualname)."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if inspect.iscode(const):
                    stack.append(const)
                    if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in _INLINE:
                        found.add(_key(const))
    return found


def run_roots(tmp: Path) -> None:
    """Run every root once (usage errors included)."""
    from repro.cli import main

    config = tmp / "config.json"
    config.write_text('{"seed": 3, "planning": {"epsilon": 0.2}}')
    fleet = ["fleet", "--homes", "40", "--shard-size", "10", "--seed-classes", "4"]
    argvs = [["report"], ["report", "--jobs", "2"]]
    for jobs in ("1", "2"):
        fleet_jobs = fleet + ["--jobs", jobs, "--cache", str(tmp / f"fleet-{jobs}")]
        argvs += [fleet_jobs + ["--timing"], fleet_jobs + ["--json"],
                  fleet_jobs + ["--json", "--episodes", "5"]]
    report = ["report", "--fast", "--cache", str(tmp / "report")]
    argvs += [
        ["list-adls"], ["scenario"], ["simulate", "nope"],
        ["train", "tea-making", "--config", str(config), "--routine", "1,3,2,4",
         "--save", str(tmp / "policy.json"), "--plot"],
        ["train", "tea-making", "--episodes", "3"],
        ["train", "tea-making", "--routine", "1,1"],
        ["simulate", "tea-making", "--episodes", "2", "--adapt", "--timeline",
         "--config", str(config)],
        report + ["--no-ablations", "--timing", "--output", str(tmp / "out.txt")],
        report,
    ]
    for argv in argvs:
        with contextlib.suppress(SystemExit):
            main(argv)
    for example in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")


def run_workloads(tmp: Path) -> None:
    """Run each benchmark workload once, at most 40 homes, at its jobs."""
    from bench.workloads import WORKLOADS, prepare

    for workload in WORKLOADS.values():
        if workload.homes:
            homes = min(workload.homes, 40)
            workload = replace(
                workload, homes=homes, spec={**workload.spec, "homes": homes}
            )
        scratch = tmp / workload.name
        scratch.mkdir()
        run, _ = prepare(workload, 0, scratch)
        run(workload.jobs_here(), {})


def _profiled(roots, tmp: Path, record, trace: bool = False) -> None:
    """Run ``roots`` with ``record`` as the profile (or trace) function."""
    hooks = (sys.settrace, threading.settrace) if trace else (
        sys.setprofile, threading.setprofile)
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
            contextlib.redirect_stderr(null):
        for hook in reversed(hooks):
            hook(record)
        try:
            for root in roots:
                root(tmp)
        finally:
            for hook in hooks:
                hook(None)


def reach() -> int:
    called = set()

    def record(frame, event, arg):
        called.add(frame.f_code)

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        _profiled([run_roots], Path(tmp), record)
    everything = functions()
    never = sorted(everything - {_key(code) for code in called})
    for path, line, name in never:
        print(f"{os.path.relpath(path, ROOT)}:{line} {name}")
    print(f"{len(never)} of {len(everything)} functions in src/repro never "
          f"called ({time.perf_counter() - start:.0f} s)")
    return 0


# -- the parameter census ------------------------------------------------


def _function_of(code) -> Optional[types.FunctionType]:
    """The function object running ``code`` (its defaults live there)."""
    for referrer in gc.get_referrers(code):
        if isinstance(referrer, types.FunctionType) and referrer.__code__ is code:
            return referrer
    return None


def _defaults(function: types.FunctionType) -> Dict[str, object]:
    """``{parameter: default}`` of every defaulted parameter."""
    code = function.__code__
    positional = code.co_varnames[: code.co_argcount]
    defaults = function.__defaults__ or ()
    found = dict(zip(positional[len(positional) - len(defaults):], defaults))
    found.update(function.__kwdefaults__ or {})
    return found


def _same(value, default) -> bool:
    if value is default:
        return True
    try:
        return bool(value == default)
    except Exception:  # e.g. an array against None
        return False


def _first_resume(code) -> Optional[int]:
    """A generator's first ``call`` event fires here; later ones resume it."""
    if not code.co_flags & (inspect.CO_GENERATOR | inspect.CO_COROUTINE
                            | inspect.CO_ASYNC_GENERATOR):
        return None
    for instruction in dis.get_instructions(code):
        if instruction.opname == "RESUME":
            return instruction.offset
    return None


class _Watch(NamedTuple):
    function: types.FunctionType
    #: Defaulted parameters no call has set yet, with their defaults.
    unset: Dict[str, object]
    first_resume: Optional[int]


def census(tmp: Path) -> Dict[types.CodeType, _Watch]:
    """Run every root; return each called function's never-set parameters."""
    src = str(SRC) + os.sep
    watched: Dict[types.CodeType, Optional[_Watch]] = {}

    def record(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        try:
            watch = watched[code]
        except KeyError:
            watch = None
            if os.path.realpath(code.co_filename).startswith(src):
                function = _function_of(code)
                if function is not None:
                    watch = _Watch(function, _defaults(function), _first_resume(code))
            watched[code] = watch
        if watch is None or not watch.unset:
            return
        if watch.first_resume is not None and frame.f_lasti != watch.first_resume:
            return
        values = frame.f_locals
        for name, default in list(watch.unset.items()):
            if not _same(values.get(name, default), default):
                del watch.unset[name]

    _profiled([run_roots, run_workloads], tmp, record)
    return {code: watch for code, watch in watched.items() if watch is not None}


class _Site(NamedTuple):
    area: str
    where: str
    keywords: frozenset
    #: Positional arguments before any ``*args``.
    positional: int
    #: A ``*args`` (or an argument tuple of unknown length).
    star: bool
    #: A ``**kwargs``.
    double_star: bool

    def passes(self, index: Optional[int], name: str) -> bool:
        if name in self.keywords or self.double_star:
            return True
        return index is not None and (index < self.positional or self.star)


def _callee(node) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _arguments(args, keywords):
    positional, star = 0, False
    for arg in args:
        if isinstance(arg, ast.Starred):
            star = True
            break
        positional += 1
    names = frozenset(k.arg for k in keywords if k.arg is not None)
    return names, positional, star, any(k.arg is None for k in keywords)


def _deferred(cell: ast.Call) -> ast.Call:
    """``Cell(fn, args, kwargs)`` as the call of ``fn`` it defers."""
    parts = dict(zip(("fn", "args", "kwargs"), cell.args))
    parts.update((k.arg, k.value) for k in cell.keywords if k.arg)
    args, kwargs = parts.get("args"), parts.get("kwargs")
    if isinstance(args, ast.Tuple) or args is None:
        positional = args.elts if args else []
    else:  # an argument tuple of unknown length
        positional = [ast.Starred()]
    if isinstance(kwargs, ast.Dict):
        keywords = [
            ast.keyword(arg=key.value if isinstance(key, ast.Constant) else None)
            for key in kwargs.keys
        ]
    else:
        keywords = [ast.keyword(arg=None)] if kwargs else []
    return ast.Call(func=parts["fn"], args=positional, keywords=keywords)


def call_sites() -> Dict[str, List[_Site]]:
    """Every call in the scanned areas, by the name it calls."""
    sites: Dict[str, List[_Site]] = defaultdict(list)
    for area in AREAS:
        for path in sorted((ROOT / area).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                calls = [node]
                if _callee(node.func) == "Cell" and node.args:
                    calls.append(_deferred(node))
                where = f"{os.path.relpath(path, ROOT)}:{node.lineno}"
                for call in calls:
                    name = _callee(call.func)
                    if name is not None:
                        sites[name].append(
                            _Site(area, where, *_arguments(call.args, call.keywords))
                        )
    return sites


def _call_name(code) -> Optional[str]:
    parts = code.co_qualname.split(".")
    if parts[-1] == "__init__" and len(parts) > 1:
        return parts[-2]
    return parts[-1]


def _index(code, name: str) -> Optional[int]:
    """``name``'s index among the arguments a call passes positionally."""
    positional = code.co_varnames[: code.co_argcount]
    if name not in positional:
        return None  # keyword-only
    offset = 1 if positional and positional[0] in ("self", "cls") else 0
    return positional.index(name) - offset


def count_defaulted() -> int:
    """Defaulted parameters in ``src/repro``, by AST."""
    count = 0
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(default is not None for default in node.args.kw_defaults)
    return count


GROUPS = ("no call site", "tests only", "src passes the default")


def knobs() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        watched = census(Path(tmp))
    sites = call_sites()
    groups: Dict[str, List[str]] = {group: [] for group in GROUPS}
    total = 0
    for code, watch in sorted(watched.items(), key=lambda item: _key(item[0])):
        total += len(_defaults(watch.function))
        for name in watch.unset:
            index = _index(code, name)
            passing = [s for s in sites.get(_call_name(code), ()) if s.passes(index, name)]
            src_sites = [s for s in passing if s.area == AREAS[0]]
            group = GROUPS[2] if src_sites else GROUPS[1] if passing else GROUPS[0]
            shown = (src_sites or passing)[:1]
            path, line, qualname = _key(code)
            groups[group].append(
                f"{os.path.relpath(path, ROOT)}:{line} {qualname}({name})"
                + (f"  [{shown[0].where}]" if shown else "")
            )
    for group in GROUPS:
        print(f"== {group}: {len(groups[group])}")
        for entry in groups[group]:
            print(entry)
    never = sum(len(entries) for entries in groups.values())
    print(f"{never} of {total} defaulted parameters of called src/repro functions "
          f"never set by a root ({', '.join(f'{g} {len(groups[g])}' for g in GROUPS)}); "
          f"{count_defaulted()} defaulted parameters in src/repro "
          f"({time.perf_counter() - start:.0f} s)")
    return 0


# -- the statement audit ---------------------------------------------------

#: Statements that compile to no code, so no line event can mark them.
_SILENT = (ast.Global, ast.Nonlocal)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_docstring(node, body) -> bool:
    return (node is body[0] and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _first_line(node) -> int:
    decorators = getattr(node, "decorator_list", None)
    return min([node.lineno] + [d.lineno for d in decorators or ()])


def _span(node) -> range:
    """The lines that mark ``node`` as run: a compound statement's
    header (up to its first child statement), a simple one's whole span."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(_first_line(node), max(node.lineno, body[0].lineno - 1) + 1)
    return range(node.lineno, node.end_lineno + 1)


def _statements(body):
    """Every statement of a function body, nested blocks included, but
    not the bodies of nested functions and classes (their own code)."""
    for node in body:
        if _is_docstring(node, body) or isinstance(node, _SILENT) or (
                isinstance(node, ast.AnnAssign) and node.value is None):
            continue
        yield node
        if isinstance(node, _DEFS):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(node, field, None) or [])
        for child in getattr(node, "handlers", None) or getattr(node, "cases", None) or ():
            yield from _statements(child.body)


def function_bodies(path: Path):
    """``{(first line, qualname): statements}`` of every function in ``path``."""
    found = {}

    def walk(body, prefix):
        for node in body:
            if isinstance(node, _DEFS):
                qualname = prefix + node.name
                if isinstance(node, ast.ClassDef):
                    walk(node.body, qualname + ".")
                else:
                    found[_first_line(node), qualname] = list(_statements(node.body))
                    walk(node.body, qualname + ".<locals>.")
            else:
                for field in ("body", "orelse", "finalbody"):
                    walk(getattr(node, field, None) or [], prefix)
                for child in getattr(node, "handlers", None) or ():
                    walk(child.body, prefix)

    walk(ast.parse(path.read_text(), str(path)).body, "")
    return found


def lines() -> int:
    src = str(SRC) + os.sep
    inside: Dict[str, bool] = {}
    called = set()
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def record(frame, event, arg):
        code = frame.f_code
        path = code.co_filename
        if path not in inside:
            inside[path] = os.path.realpath(path).startswith(src)
        if not inside[path]:
            return None
        called.add(code)
        return local

    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        _profiled([run_roots, run_workloads], Path(tmp), record, trace=True)
    ran = {(os.path.realpath(path), line) for path, line in ran}
    bodies = {}
    total = 0
    never = []
    for path, first, qualname in sorted({_key(code) for code in called}):
        if path not in bodies:
            bodies[path] = function_bodies(Path(path))
        for node in bodies[path].get((first, qualname), ()):
            total += 1
            if not any((path, line) in ran for line in _span(node)):
                never.append(f"{os.path.relpath(path, ROOT)}:{node.lineno} {qualname}")
    for entry in never:
        print(entry)
    print(f"{len(never)} of {total} statements in called src/repro functions "
          f"never run ({time.perf_counter() - start:.0f} s)")
    return 0


MODES = {"--knobs": knobs, "--lines": lines}


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and (len(argv) > 1 or argv[0] not in MODES):
        print("usage: python -m tests.reach [--knobs | --lines]", file=sys.stderr)
        return 2
    return MODES[argv[0]]() if argv else reach()


if __name__ == "__main__":
    sys.exit(main())
