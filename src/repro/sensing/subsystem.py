"""The sensing subsystem (paper section 2.1, Figure 2 left box).

Wiring: base-station frames -> ToolUsageEvent -> usage history +
StepExtractor -> StepEvent.  All outputs go onto the shared event bus
so the planning subsystem never touches radio internals.
"""

from __future__ import annotations

from typing import Optional

from repro.core.adl import ADL
from repro.core.bus import EventBus
from repro.core.config import SensingConfig
from repro.core.events import SensorFrameEvent, StepEvent, ToolUsageEvent
from repro.sensing.history import UsageHistory
from repro.sensing.step_extractor import StepExtractor
from repro.sensors.network import BaseStation
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecorder

__all__ = ["SensingSubsystem"]


class SensingSubsystem:
    """Extracts the user's current ADL step from sensor frames.

    Publishes :class:`ToolUsageEvent` (every accepted detection) and
    :class:`StepEvent` (every step transition, including idle) on the
    bus, and feeds the usage history used for dwell statistics.
    """

    def __init__(
        self,
        sim: Simulator,
        adl: ADL,
        bus: EventBus,
        config: SensingConfig,
        base_station: Optional[BaseStation] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.adl = adl
        self.bus = bus
        self.config = config
        self._trace = trace
        self.history = UsageHistory()
        self.extractor = StepExtractor(
            sim=sim, idle_timeout=config.idle_timeout, on_step=self._publish_step
        )
        self.frames_ignored = 0
        if base_station is not None:
            base_station.frames.subscribe(self.on_frame)

    def on_frame(self, frame: SensorFrameEvent) -> None:
        """Handle one uplink frame from the base station.

        Frames from uids that are not tools of this ADL are counted
        and dropped (a foreign node sharing the radio channel must not
        corrupt the step stream).
        """
        if not self.adl.has_step(frame.node_uid):
            self.frames_ignored += 1
            return
        self._accept_usage(frame.node_uid)

    def inject_usage(self, tool_id: int) -> None:
        """Feed a detection directly (offline training / unit tests)."""
        if not self.adl.has_step(tool_id):
            self.frames_ignored += 1
            return
        self._accept_usage(tool_id)

    def _accept_usage(self, tool_id: int) -> None:
        now = self.sim.now
        self.history.append(now, tool_id)
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(now, "sensing.tool_usage", tool_id=tool_id)
        # No production subsystem listens for raw usages; build the
        # event only for a handler that does.
        if self.bus.handler_count(ToolUsageEvent):
            self.bus.publish(ToolUsageEvent(time=now, tool_id=tool_id))
        self.extractor.observe_tool(tool_id)

    def _publish_step(self, event: StepEvent) -> None:
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(
                event.time,
                "sensing.step",
                step_id=event.step_id,
                previous=event.previous_step_id,
            )
        self.bus.publish(event)

    @property
    def current_step_id(self) -> int:
        """The StepID the user is currently in (0 = idle)."""
        return self.extractor.current_step_id

    def reset_episode(self) -> None:
        """Prepare for a new ADL episode (extractor back to idle)."""
        self.extractor.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SensingSubsystem({self.adl.name!r}, "
            f"current_step={self.current_step_id})"
        )
