"""The behaving resident: a simulated care recipient.

The resident executes their personal routine as a simulation process,
physically driving the signal sources of the sensor network (so the
whole pipeline -- sampling, detection, radio, step extraction,
planning, reminding -- is exercised end to end), injecting dementia
errors, and reacting to reminders according to a compliance model.

Error handling mirrors the paper's two trigger situations:

* **stall** -- the resident does nothing until a reminder for the
  right tool arrives (or self-recovers after a long timeout);
* **wrong tool** -- the resident briefly uses another tool, then
  waits for guidance;
* **perseveration** -- the resident re-handles the previous tool
  (invisible as a step change, so it presents to the system as a
  stall).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.adl import Routine
from repro.core.bus import EventBus
from repro.core.events import ReminderEvent
from repro.resident.compliance import ComplianceModel
from repro.resident.dementia import DementiaProfile, ErrorKind, ScriptedError
from repro.sensors.network import SensorNetwork
from repro.sim.kernel import Signal, Simulator
from repro.sim.process import Process, Timeout, Wait
from repro.sim.tracing import TraceRecorder

__all__ = ["EpisodeOutcome", "Resident"]

#: Seconds a resident waits for an answerable prompt before
#: remembering the step on their own.
PROMPT_WAIT_TIMEOUT = 120.0


@dataclass
class EpisodeOutcome:
    """What happened during one episode attempt."""

    completed: bool
    duration: float
    reminders_seen: int
    reminders_followed: int
    self_recoveries: int
    errors: int


class Resident:
    """A simulated dementia patient performing one ADL.

    ``error_script`` maps a 0-based step index to a
    :class:`ScriptedError` for deterministic scenarios (Figure 1);
    otherwise errors are drawn from ``dementia`` per step.  Stochastic
    errors are never drawn at index 0: before the first tool is
    touched the system has nothing to predict from (paper section
    3.3), so a first-step error would only measure the self-recovery
    fallback.
    """

    def __init__(
        self,
        sim: Simulator,
        routine: Routine,
        network: SensorNetwork,
        bus: EventBus,
        rng: np.random.Generator,
        dementia: Optional[DementiaProfile] = None,
        compliance: Optional[ComplianceModel] = None,
        error_script: Optional[Dict[int, ScriptedError]] = None,
        dwell_overrides: Optional[Dict[int, float]] = None,
        handling_overrides: Optional[Dict[int, float]] = None,
        error_use_duration: float = 3.0,
        name: str = "resident",
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.routine = routine
        self.adl = routine.adl
        self.network = network
        self.bus = bus
        self.name = name
        self._rng = rng
        self.dementia = dementia if dementia is not None else DementiaProfile.none()
        self.compliance = (
            compliance if compliance is not None else ComplianceModel()
        )
        self.error_script = dict(error_script or {})
        self.dwell_overrides = dict(dwell_overrides or {})
        self.handling_overrides = dict(handling_overrides or {})
        self.error_use_duration = error_use_duration
        self._trace = trace
        self._reminder_queue: List[ReminderEvent] = []
        self._reminder_signal = Signal(f"{name}.reminders")
        self.outcome: Optional[EpisodeOutcome] = None
        self._reminders_seen = 0
        self._reminders_followed = 0
        self._self_recoveries = 0
        self._errors = 0
        self._unsubscribe = bus.subscribe(ReminderEvent, self._on_reminder)

    # ------------------------------------------------------------------
    # public API

    def start_episode(self) -> Process:
        """Spawn the episode process; returns it for completion checks."""
        return Process(
            self.sim, self._episode(), name=f"{self.name}.episode"
        )

    # ------------------------------------------------------------------
    # reminders

    def _on_reminder(self, reminder: ReminderEvent) -> None:
        self._reminder_queue.append(reminder)
        self._reminders_seen += 1
        self._reminder_signal.fire(reminder)

    def _pop_reminder(self, expected_tool_id: int) -> Optional[ReminderEvent]:
        for index, reminder in enumerate(self._reminder_queue):
            if reminder.tool_id == expected_tool_id:
                del self._reminder_queue[index]
                return reminder
        return None

    # ------------------------------------------------------------------
    # behaviour

    def _episode(self):
        start = self.sim.now
        previous_tool: Optional[int] = None
        for index, step_id in enumerate(self.routine.step_ids):
            error = self._decide_error(index, previous_tool)
            if error is not None:
                yield from self._act_out_error(error, step_id, previous_tool)
            yield from self._perform_step(step_id, is_last=step_id == self.routine.terminal_step_id)
            previous_tool = step_id
        self.outcome = EpisodeOutcome(
            completed=True,
            duration=self.sim.now - start,
            reminders_seen=self._reminders_seen,
            reminders_followed=self._reminders_followed,
            self_recoveries=self._self_recoveries,
            errors=self._errors,
        )
        # A finished resident reads no more reminders; leaving it on
        # the bus would queue every later episode's prompts for it.
        self._unsubscribe()
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(
                self.sim.now, "resident.completed", duration=self.outcome.duration
            )
        return self.outcome

    def _decide_error(
        self, index: int, previous_tool: Optional[int]
    ) -> Optional[ScriptedError]:
        if index in self.error_script:
            return self.error_script[index]
        if index == 0:
            return None
        kind = self.dementia.draw_error(self._rng)
        if kind == ErrorKind.NONE:
            return None
        if kind == ErrorKind.WRONG_TOOL:
            wrong = self._pick_wrong_tool(index, previous_tool)
            if wrong is None:
                return None
            return ScriptedError(kind=kind, wrong_tool_id=wrong)
        if kind == ErrorKind.PERSEVERATE and previous_tool is None:
            return None
        return ScriptedError(kind=kind)

    def _pick_wrong_tool(
        self, index: int, previous_tool: Optional[int]
    ) -> Optional[int]:
        expected = self.routine.step_ids[index]
        candidates = [
            tool.tool_id
            for tool in self.adl.tools
            if tool.tool_id not in (expected, previous_tool)
        ]
        if not candidates:
            return None
        return int(candidates[int(self._rng.integers(len(candidates)))])

    def _act_out_error(self, error: ScriptedError, expected_step_id: int, previous_tool):
        self._errors += 1
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(
                self.sim.now,
                "resident.error",
                kind=error.kind,
                expected=expected_step_id,
                wrong_tool=error.wrong_tool_id,
            )
        if error.kind == ErrorKind.WRONG_TOOL:
            assert error.wrong_tool_id is not None
            yield from self._use_tool(error.wrong_tool_id, self.error_use_duration)
        elif error.kind == ErrorKind.PERSEVERATE and previous_tool is not None:
            yield from self._use_tool(previous_tool, self.error_use_duration)
        yield from self._await_prompt(expected_step_id)

    def _await_prompt(self, expected_tool_id: int):
        """Wait until a compliant reminder for the right tool arrives."""
        while True:
            reminder = self._pop_reminder(expected_tool_id)
            if reminder is None:
                payload = yield Wait(
                    self._reminder_signal, timeout=PROMPT_WAIT_TIMEOUT
                )
                if payload is Wait.TIMED_OUT:
                    # No (answerable) guidance came: the resident
                    # eventually remembers on their own.
                    self._self_recoveries += 1
                    if self._trace is not None and self._trace.enabled:
                        self._trace.emit(self.sim.now, "resident.self_recovery")
                    return
                continue
            if self.compliance.responds(reminder.level, self._rng):
                self._reminders_followed += 1
                yield Timeout(self.compliance.response_delay(self._rng))
                return
            # The reminder went unnoticed; wait for the escalation.

    def _perform_step(self, step_id: int, is_last: bool):
        step = self.adl.step(step_id)
        dwell = self.dwell_overrides.get(step_id)
        if dwell is None:
            dwell = float(
                max(
                    self._rng.normal(step.typical_duration, step.duration_sd),
                    step.handling_duration + 0.5,
                )
            )
        handling = self.handling_overrides.get(step_id, step.handling_duration)
        handling = min(handling, dwell - 0.2)
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(
                self.sim.now,
                "resident.step",
                step_id=step_id,
                dwell=dwell,
                handling=handling,
            )
        source = self.network.source(step_id)
        source.begin_use(self.sim.now, handling)
        # The final step's dwell does not delay episode completion
        # accounting, but the tool is still handled to its end.
        yield Timeout(handling if is_last else dwell)

    def _use_tool(self, tool_id: int, duration: float):
        source = self.network.source(tool_id)
        source.begin_use(self.sim.now, duration)
        yield Timeout(duration + 0.5)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resident({self.name!r}, adl={self.adl.name!r})"
