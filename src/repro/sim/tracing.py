"""Structured trace recording for simulated runs.

The evaluation harness reconstructs timelines (e.g. the paper's
Figure 1 scenario: wrong tool at 13 s, praise at 23 s, stall prompt at
71 s) from traces recorded here.  Entries are cheap tuples of
``(time, category, payload)`` with helper queries, kept deliberately
simple so any subsystem can emit them without coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

__all__ = ["TraceEntry", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEntry:
    """One trace record.

    ``category`` is a dotted string such as ``"reminder.prompt"`` or
    ``"sensing.tool_usage"``; ``payload`` is a dict of event fields.
    """

    time: float
    category: str
    payload: Dict[str, Any] = field(default_factory=dict)

    def matches(self, prefix: str) -> bool:
        """True if the category equals ``prefix`` or is nested under it."""
        return self.category == prefix or self.category.startswith(prefix + ".")


class TraceRecorder:
    """Accumulates :class:`TraceEntry` records in time order.

    The recorder trusts callers to emit with non-decreasing timestamps
    (the kernel guarantees this inside one simulation); an out-of-order
    emit raises so bugs surface immediately instead of corrupting
    timeline reconstruction.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._entries: List[TraceEntry] = []
        self._listeners: List[Callable[[TraceEntry], None]] = []

    def emit(self, time: float, category: str, **payload: Any) -> None:
        """Record one entry (no-op while disabled)."""
        if not self.enabled:
            return
        if self._entries and time < self._entries[-1].time:
            raise ValueError(
                f"trace emitted out of order: t={time} after "
                f"t={self._entries[-1].time} ({category})"
            )
        entry = TraceEntry(time=float(time), category=category, payload=payload)
        self._entries.append(entry)
        for listener in self._listeners:
            listener(entry)

    def on_emit(self, listener: Callable[[TraceEntry], None]) -> None:
        """Register a live listener called for every new entry."""
        self._listeners.append(listener)

    def entries(self) -> List[TraceEntry]:
        """All entries, in time order."""
        return list(self._entries)

    def count(self, prefix: str) -> int:
        """Number of entries under ``prefix``."""
        return sum(1 for e in self._entries if e.matches(prefix))

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceRecorder(entries={len(self._entries)}, enabled={self.enabled})"
