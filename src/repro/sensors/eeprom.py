"""The node's external EEPROM, modelled as a bounded ring log.

The real PAVENET carries a 16 KB external EEPROM (Table 1).  Firmware
uses it as a circular log of detection records so that usage history
survives radio outages.  We enforce the byte budget: each record costs
a fixed size and the oldest records are overwritten when full, exactly
like a ring buffer in flash.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List

__all__ = ["EepromRecord", "EepromLog"]

#: Bytes per log record: 4 (timestamp) + 2 (uid) + 2 (sequence).
RECORD_SIZE = 8


@dataclass(frozen=True, slots=True)
class EepromRecord:
    """One detection record persisted on the node."""

    timestamp: float
    node_uid: int
    sequence: int


class EepromLog:
    """A capacity-bounded circular log of :class:`EepromRecord`.

    ``capacity_bytes`` defaults to the PAVENET's 16 KB.  Writes beyond
    capacity silently evict the oldest record (ring semantics);
    :attr:`overwrites` counts how many were lost, which shows when a
    lossy link backs the log up.
    """

    def __init__(self, capacity_bytes: int = 16 * 1024) -> None:
        if capacity_bytes < RECORD_SIZE:
            raise ValueError(
                f"capacity_bytes must hold at least one {RECORD_SIZE}-byte record"
            )
        self.capacity_records = capacity_bytes // RECORD_SIZE
        self._records: Deque[EepromRecord] = deque(maxlen=self.capacity_records)
        self.writes = 0
        self.overwrites = 0

    def append(self, record: EepromRecord) -> None:
        """Persist one record, evicting the oldest when full."""
        if len(self._records) == self.capacity_records:
            self.overwrites += 1
        self._records.append(record)
        self.writes += 1

    def records(self) -> List[EepromRecord]:
        """All currently retained records, oldest first."""
        return list(self._records)

    def used_bytes(self) -> int:
        """Bytes currently occupied."""
        return len(self._records) * RECORD_SIZE

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EepromLog({len(self._records)}/{self.capacity_records} records, "
            f"overwrites={self.overwrites})"
        )
