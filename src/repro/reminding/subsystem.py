"""The reminding subsystem (paper section 2.3, Figure 2 right box).

Receives prompt requests from the planning subsystem and informs the
user by the paper's three methods: text message, tool picture, LED
blinking.  For a wrong-tool situation the target tool's green LED and
the offending tool's red LED both blink, exactly as in Figure 1's
13-second mark ("Red LED on teacup / Green LED on pot").
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.adl import ADL
from repro.core.bus import EventBus
from repro.core.config import RemindingConfig
from repro.core.events import (
    PraiseEvent,
    PromptRequestEvent,
    ReminderEvent,
    TriggerReason,
)
from repro.reminding.display import Display
from repro.reminding.escalation import EscalationPolicy
from repro.reminding.led import LedController
from repro.reminding.prompts import render_message
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecorder

__all__ = ["RemindingSubsystem"]


class RemindingSubsystem:
    """Turns prompt requests into display screens and LED blinks."""

    def __init__(
        self,
        sim: Simulator,
        adl: ADL,
        bus: EventBus,
        config: RemindingConfig,
        display: Display,
        leds: Optional[LedController] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.adl = adl
        self.bus = bus
        self.config = config
        self.display = display
        self.leds = leds
        self._trace = trace
        self.escalation = EscalationPolicy(config)
        self.reminders: List[ReminderEvent] = []
        self.caregiver_alerts = 0
        self.praises_rendered = 0
        bus.subscribe(PromptRequestEvent, self.on_prompt_request)
        bus.subscribe(PraiseEvent, self.on_praise)

    def on_prompt_request(self, request: PromptRequestEvent) -> None:
        """Deliver one reminder (or give up and alert a caregiver)."""
        decision = self.escalation.decide(request.tool_id, request.level)
        if decision.give_up:
            self.caregiver_alerts += 1
            if self._trace is not None and self._trace.enabled:
                self._trace.emit(
                    self.sim.now,
                    "reminder.gave_up",
                    tool_id=request.tool_id,
                    attempts=decision.attempt,
                )
            return
        tool = self.adl.tool(request.tool_id)
        message = render_message(decision.level, tool, self.config.user_title)
        self.display.show(message, picture=tool.picture or tool.name)
        if self.leds is not None:
            self.leds.indicate_target(tool.tool_id, decision.level)
            if (
                request.reason is TriggerReason.WRONG_TOOL
                and request.wrong_tool_id is not None
            ):
                self.leds.indicate_wrong_use(request.wrong_tool_id, decision.level)
        reminder = ReminderEvent(
            time=self.sim.now,
            tool_id=request.tool_id,
            level=decision.level,
            reason=request.reason,
            message=message,
            picture=tool.picture or tool.name,
            wrong_tool_id=request.wrong_tool_id,
        )
        self.reminders.append(reminder)
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(
                self.sim.now,
                "reminder.prompt",
                tool_id=request.tool_id,
                level=decision.level.value,
                reason=request.reason.name,
                attempt=decision.attempt,
                wrong_tool_id=request.wrong_tool_id,
            )
        self.bus.publish(reminder)

    def on_praise(self, praise: PraiseEvent) -> None:
        """Render praise and reset the escalation counter."""
        if not self.config.praise_enabled:
            return
        self.praises_rendered += 1
        self.display.show(praise.message)
        self.escalation.reset()
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(self.sim.now, "reminder.praise", step_id=praise.step_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemindingSubsystem({self.adl.name!r}, "
            f"reminders={len(self.reminders)})"
        )
