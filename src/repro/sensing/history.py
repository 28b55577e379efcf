"""The tool-usage history store (Figure 2: "Tool Usage History Data").

An append-only record of ``(time, tool_id)`` detections.  Besides the
raw sequence fed to the planning subsystem, it computes the per-step
dwell statistics the paper's footnote 1 calls for: "this time should
be determined from the statistical data of how long a user will use
this tool" -- the reminding subsystem derives its stall timeouts from
these statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["UsageRecord", "DwellStats", "UsageHistory"]


@dataclass(frozen=True, slots=True)
class UsageRecord:
    """One tool-usage detection as seen by the server."""

    time: float
    tool_id: int


@dataclass(frozen=True)
class DwellStats:
    """Duration statistics of one step (time until the *next* step)."""

    count: int
    mean: float
    sd: float

    def timeout(self, sd_factor: float) -> float:
        """Stall timeout: mean + ``sd_factor`` standard deviations."""
        return self.mean + sd_factor * self.sd


class UsageHistory:
    """Chronological store of usage records with dwell statistics.

    Dwell samples are appended as records arrive, and each tool's
    :class:`DwellStats` is kept until its samples change, so reading
    one tool's statistics costs no pass over the history.
    """

    def __init__(self) -> None:
        self._records: List[UsageRecord] = []
        #: First record of the run of same-tool detections in progress.
        self._run_start: Optional[UsageRecord] = None
        self._samples: Dict[int, List[float]] = {}
        self._stats: Dict[int, DwellStats] = {}

    def append(self, time: float, tool_id: int) -> None:
        """Record one detection (times must be non-decreasing)."""
        if self._records and time < self._records[-1].time:
            raise ValueError(
                f"usage recorded out of order: t={time} after "
                f"t={self._records[-1].time}"
            )
        record = UsageRecord(time=float(time), tool_id=int(tool_id))
        self._records.append(record)
        start = self._run_start
        if start is None:
            self._run_start = record
        elif record.tool_id != start.tool_id:
            self._samples.setdefault(start.tool_id, []).append(
                record.time - start.time
            )
            self._stats.pop(start.tool_id, None)
            self._run_start = record

    def records(self) -> List[UsageRecord]:
        """All records, oldest first."""
        return list(self._records)

    def of_tool(self, tool_id: int) -> List[UsageRecord]:
        """All records for one tool."""
        return [r for r in self._records if r.tool_id == tool_id]

    def dwell(self, tool_id: int) -> Optional[DwellStats]:
        """Statistics of time spent with ``tool_id`` before the next step.

        A dwell sample for tool T is the gap between the first
        detection of T in a run and the first detection of the next
        distinct tool.  Tools that never hand over (e.g. the last
        detection in the history) contribute no sample; ``None`` when
        ``tool_id`` has none.
        """
        stats = self._stats.get(tool_id)
        if stats is None:
            durations = self._samples.get(tool_id)
            if durations is None:
                return None
            stats = self._stats[tool_id] = _summarise(durations)
        return stats

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UsageHistory(records={len(self._records)})"


def _summarise(durations: List[float]) -> DwellStats:
    """Mean and sample sd, by left-to-right ``sum`` and two passes."""
    count = len(durations)
    mean = sum(durations) / count
    if count > 1:
        variance = sum((d - mean) ** 2 for d in durations) / (count - 1)
    else:
        variance = 0.0
    return DwellStats(count=count, mean=mean, sd=math.sqrt(variance))
