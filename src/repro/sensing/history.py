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


@dataclass(frozen=True)
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
    """Chronological store of usage records with dwell statistics."""

    def __init__(self) -> None:
        self._records: List[UsageRecord] = []

    def append(self, time: float, tool_id: int) -> None:
        """Record one detection (times must be non-decreasing)."""
        if self._records and time < self._records[-1].time:
            raise ValueError(
                f"usage recorded out of order: t={time} after "
                f"t={self._records[-1].time}"
            )
        self._records.append(UsageRecord(time=float(time), tool_id=int(tool_id)))

    def records(self) -> List[UsageRecord]:
        """All records, oldest first."""
        return list(self._records)

    def of_tool(self, tool_id: int) -> List[UsageRecord]:
        """All records for one tool."""
        return [r for r in self._records if r.tool_id == tool_id]

    def dwell_stats(self) -> Dict[int, DwellStats]:
        """Per-tool statistics of time spent before the next step.

        A dwell sample for tool T is the gap between the first
        detection of T in a run and the first detection of the next
        distinct tool.  Tools that never hand over (e.g. the last
        detection in the history) contribute no sample.
        """
        samples: Dict[int, List[float]] = {}
        run_start: Optional[UsageRecord] = None
        for record in self._records:
            if run_start is None:
                run_start = record
                continue
            if record.tool_id != run_start.tool_id:
                samples.setdefault(run_start.tool_id, []).append(
                    record.time - run_start.time
                )
                run_start = record
        stats: Dict[int, DwellStats] = {}
        for tool_id, durations in samples.items():
            count = len(durations)
            mean = sum(durations) / count
            if count > 1:
                variance = sum((d - mean) ** 2 for d in durations) / (count - 1)
            else:
                variance = 0.0
            stats[tool_id] = DwellStats(count=count, mean=mean, sd=math.sqrt(variance))
        return stats

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UsageHistory(records={len(self._records)})"
