"""StepID extraction from the tool-usage stream (paper section 2.1).

The StepID of the user's current step is the id of the tool mainly
used in it; StepID 0 means "nothing is done for a long time".  The
extractor therefore:

* turns the first detection of a *different* tool into a step change;
* swallows repeated detections of the current tool;
* runs an idle timer that emits a transition to StepID 0 when no tool
  has been used for ``idle_timeout`` seconds.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.core.adl import IDLE_STEP_ID
from repro.core.events import StepEvent
from repro.sim.kernel import Event, Simulator

__all__ = ["StepExtractor"]


class StepExtractor:
    """Maintains the current StepID and emits transitions.

    ``on_step`` is invoked with a :class:`~repro.core.events.StepEvent`
    for every transition, including into idle (StepID 0).  Call
    :meth:`reset` between ADL episodes.
    """

    def __init__(
        self,
        sim: Simulator,
        idle_timeout: float,
        on_step: Callable[[StepEvent], None],
    ) -> None:
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        self.sim = sim
        self.idle_timeout = idle_timeout
        self._on_step = on_step
        self.current_step_id = IDLE_STEP_ID
        self.transitions = 0
        self._idle_event: Optional[Event] = None
        self.step_log: List[StepEvent] = []

    def observe_tool(self, tool_id: int) -> Optional[StepEvent]:
        """Process one tool-usage detection.

        Returns the emitted :class:`StepEvent`, or ``None`` when the
        detection belongs to the step already in progress.
        """
        self._rearm_idle_timer()
        if tool_id == self.current_step_id:
            return None
        return self._transition(tool_id)

    def reset(self) -> None:
        """Back to idle with no pending timer (between episodes)."""
        self._disarm_idle_timer()
        self.current_step_id = IDLE_STEP_ID

    def _transition(self, step_id: int) -> StepEvent:
        event = StepEvent(
            time=self.sim.now,
            step_id=step_id,
            previous_step_id=self.current_step_id,
        )
        self.current_step_id = step_id
        self.transitions += 1
        self.step_log.append(event)
        self._on_step(event)
        return event

    def _on_idle_timeout(self) -> None:
        self._idle_event = None
        if self.current_step_id == IDLE_STEP_ID:
            return
        self._transition(IDLE_STEP_ID)

    def _rearm_idle_timer(self) -> None:
        if self._idle_event is None:
            self._idle_event = self.sim.schedule(
                self.idle_timeout, self._on_idle_timeout
            )
        else:
            # Moved in place: a later deadline pushes no heap entry.
            deadline = self.sim.now + self.idle_timeout
            self.sim.reschedule(self._idle_event, deadline)

    def _disarm_idle_timer(self) -> None:
        if self._idle_event is not None:
            self._idle_event.cancel()
            self._idle_event = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StepExtractor(current={self.current_step_id}, "
            f"transitions={self.transitions})"
        )
