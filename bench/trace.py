"""Span tracing from outside the program: wrap, record, restore.

A traced repeat replaces chosen functions of ``repro`` -- class
attributes, and module-level functions under every name an importer
bound them to -- with wrappers that record one span per call, then
puts the originals back.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent span); all spans of one
:class:`Tracer` belong to one repeat.  They stay in flat arrays in
memory (a 1000-home fleet repeat records about 400k) and are written
out once, at exit.  A span's *self time* is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

__all__ = [
    "Tracer",
    "covered",
    "self_times",
    "traced",
    "union_length",
]

#: (module, "Class.attr" or "function", factory(tracer, original) -> wrapper)
Target = Tuple[str, str, Callable[["Tracer", Callable], Callable]]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def covered(
    intervals: Iterable[Tuple[float, float]], low: float, high: float
) -> float:
    """Length of ``[low, high]`` that the intervals cover."""
    clipped = [
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    ]
    return union_length(clipped)


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus its children's coverage of it."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[index], ends[index]))
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(index)
        inner = covered(kids, start, end) if kids else 0.0
        result.append(end - start - inner)
    return result


class Tracer:
    """Spans and counters of one traced repeat."""

    def __init__(self, repeat: int = 0) -> None:
        self.repeat = repeat
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        #: Objects wrappers keep to read once the repeat ends.
        self.kept: Dict[str, list] = defaultdict(list)
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ----- recording ----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record one span named ``name`` per call."""
        name_id = self._intern(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls only (for hot, tiny calls)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ----- patching -----------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets: Iterable[Target]) -> None:
        """Replace every target with its wrapper (see :func:`traced`)."""
        for module_name, path, factory in targets:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                if attr not in vars(owner):
                    raise AttributeError(f"{module_name}.{path} is inherited")
                self._set(owner, attr, factory(self, vars(owner)[attr]))
                continue
            original = getattr(module, path)
            wrapper = factory(self, original)
            for importer in list(sys.modules.values()):
                name = getattr(importer, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for attr, value in list(vars(importer).items()):
                    if value is original:
                        self._set(importer, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----- reading ------------------------------------------------------

    def self_times(self) -> List[float]:
        return self_times(self.starts, self.ends, self.parents)

    def summary(self) -> Dict[str, Dict[str, object]]:
        """Per span name: calls, self seconds and call durations."""
        own = self.self_times()
        result: Dict[str, Dict[str, object]] = {
            name: {"calls": 0, "self_s": 0.0, "durations": []}
            for name in self.names
        }
        for index, name_id in enumerate(self.name_ids):
            entry = result[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += own[index]
            entry["durations"].append(self.ends[index] - self.starts[index])
        return result

    def busy(self, names: Iterable[str]) -> float:
        """Wall time inside any span of ``names`` (nested calls once)."""
        wanted = {self._ids[name] for name in names if name in self._ids}
        return union_length(
            (self.starts[index], self.ends[index])
            for index, name_id in enumerate(self.name_ids)
            if name_id in wanted
        )

    def write(self, path: Path) -> None:
        """Write the spans, columnar, gzip-compressed JSON."""
        origin = self.starts[0] if self.starts else 0.0
        document = {
            "repeat": self.repeat,
            "names": self.names,
            "name": list(self.name_ids),
            "parent": list(self.parents),
            "start": [start - origin for start in self.starts],
            "end": [end - origin for end in self.ends],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            json.dump(document, out)


@contextmanager
def traced(targets: Iterable[Target], repeat: int = 0) -> Iterator[Tracer]:
    """Trace ``targets`` for the duration of the block, then restore."""
    tracer = Tracer(repeat)
    try:
        tracer.install(targets)
        yield tracer
    finally:
        tracer.restore()
