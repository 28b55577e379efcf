"""The node's real-time clock with crystal drift.

Cheap RTC crystals drift on the order of tens of parts per million.
Node-local timestamps (EEPROM records, frame headers) therefore
deviate from simulated wall time; the base station timestamps frames
on arrival with *its* clock, which is what the sensing subsystem and
the evaluation use.  Modelling the drift keeps the substrate honest
and gives the tests an invariant to pin down (monotonicity, bounded
skew).
"""

from __future__ import annotations

__all__ = ["RealTimeClock"]


class RealTimeClock:
    """A drifting clock: local = (1 + ppm*1e-6) * wall."""

    def __init__(self, drift_ppm: float = 20.0) -> None:
        self.drift_ppm = float(drift_ppm)

    def local_time(self, wall_time: float) -> float:
        """The node's idea of the time at true simulated ``wall_time``."""
        return wall_time * (1.0 + self.drift_ppm * 1e-6)

    def skew_at(self, wall_time: float) -> float:
        """Accumulated deviation from wall time, seconds."""
        return self.local_time(wall_time) - wall_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RealTimeClock(drift_ppm={self.drift_ppm})"
