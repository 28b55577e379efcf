"""The care-home display: text messages and tool pictures.

The paper shows "Text message and tool picture ... on a display" in
front of the user.  The simulated display records everything it shows
(the Figure 1 harness replays this history) and republishes each
screen as a :class:`~repro.core.events.DisplayEvent`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.bus import EventBus
from repro.core.events import DisplayEvent
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecorder

__all__ = ["Display"]


class Display:
    """A write-only screen with full show-history."""

    def __init__(
        self,
        sim: Simulator,
        bus: Optional[EventBus] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.bus = bus
        self._trace = trace
        self.history: List[DisplayEvent] = []

    def show(self, text: str, picture: str = "") -> DisplayEvent:
        """Render ``text`` (and optionally a tool ``picture``)."""
        event = DisplayEvent(time=self.sim.now, text=text, picture=picture)
        self.history.append(event)
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(self.sim.now, "display.show", text=text, picture=picture)
        if self.bus is not None:
            self.bus.publish(event)
        return event

    @property
    def current(self) -> Optional[DisplayEvent]:
        """What the screen shows right now (None before first use)."""
        if not self.history:
            return None
        return self.history[-1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Display(shown={len(self.history)})"
