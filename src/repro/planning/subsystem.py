"""The online planning subsystem (paper section 2.2, Figure 2 middle).

Consumes the StepID stream from the sensing subsystem, tracks the
user's progress through their learned routine, and raises prompt
requests for the two trigger situations of section 2.3:

1. **stall** -- the user does not use the tool they should use for a
   certain moment (per-step timeout, statistical when dwell data is
   available, per the paper's footnote 1);
2. **wrong tool** -- the user incorrectly uses another tool.

Correct steps after a prompt earn praise; reaching the routine's
terminal step completes the episode.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.adl import ADL, IDLE_STEP_ID
from repro.core.bus import EventBus
from repro.core.events import (
    EpisodeCompletedEvent,
    PraiseEvent,
    PromptRequestEvent,
    StepEvent,
    TriggerReason,
)
from repro.planning.predictor import NextStepPredictor
from repro.planning.state import PlanningState
from repro.reminding.prompts import PRAISE_MESSAGE
from repro.sim.kernel import Event, Simulator
from repro.sim.tracing import TraceRecorder

__all__ = ["PlanningSubsystem"]


class PlanningSubsystem:
    """Online guidance driven by a converged next-step predictor.

    ``stall_timeout_for`` maps a StepID to the seconds the user may
    dwell in it before a stall prompt; the CoReDA orchestrator wires
    it to the usage history's dwell statistics with the configured
    fallback.
    """

    def __init__(
        self,
        sim: Simulator,
        adl: ADL,
        bus: EventBus,
        predictor: NextStepPredictor,
        stall_timeout_for: Callable[[int], float],
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.adl = adl
        self.bus = bus
        self.predictor = predictor
        self.stall_timeout_for = stall_timeout_for
        self._trace = trace
        self.terminal_step_id = adl.terminal_step_id
        self._state: Optional[PlanningState] = None
        self._expected_tool: Optional[int] = None
        self._outstanding_prompt = False
        self._stall_event: Optional[Event] = None
        self._episode_prompts = 0
        self._episode_steps = 0
        self.prompts_requested = 0
        self.praises_given = 0
        self.episodes_completed = 0
        bus.subscribe(StepEvent, self.on_step)

    # ------------------------------------------------------------------
    # event handling

    def on_step(self, event: StepEvent) -> None:
        """Process one step transition from the sensing subsystem."""
        if event.step_id == IDLE_STEP_ID:
            # The sensing-level idle transition is a coarse fallback
            # stall signal; the fine-grained statistical timer below
            # normally fires first.
            if self._state is not None:
                self._on_stall()
            return
        if self._state is None:
            self._begin_episode(event)
            return
        if event.step_id == self._expected_tool:
            self._on_correct_step(event)
        else:
            self._on_wrong_tool(event)

    # ------------------------------------------------------------------
    # internals

    def _begin_episode(self, event: StepEvent) -> None:
        """First tool of an episode triggers the start of prediction.

        The paper cannot predict the first step ("we need them to
        trigger the start of prediction"); neither can we.
        """
        self._state = PlanningState(IDLE_STEP_ID, event.step_id)
        self._outstanding_prompt = False
        self._episode_prompts = 0
        self._episode_steps = 1
        if event.step_id == self.terminal_step_id:
            self._complete_episode(event)
            return
        self._refresh_expectation(event)

    def _on_correct_step(self, event: StepEvent) -> None:
        assert self._state is not None
        if self._outstanding_prompt:
            self._praise(event)
        self._episode_steps += 1
        self._state = PlanningState(self._state.current, event.step_id)
        self._outstanding_prompt = False
        if event.step_id == self.terminal_step_id:
            self._complete_episode(event)
            return
        self._refresh_expectation(event)

    def _on_wrong_tool(self, event: StepEvent) -> None:
        assert self._state is not None
        prompt = self.predictor.predict(self._state)
        self._request_prompt(
            tool_id=prompt.tool_id,
            level=prompt.level,
            reason=TriggerReason.WRONG_TOOL,
            wrong_tool_id=event.step_id,
        )
        # State is *not* advanced: the user is off-routine and the
        # expectation (and its stall timer) stays anchored at the last
        # valid position.
        self._arm_stall_timer(self._state.current)

    def _on_stall(self) -> None:
        self._stall_event = None
        if self._state is None or self._expected_tool is None:
            return
        prompt = self.predictor.predict(self._state)
        self._request_prompt(
            tool_id=prompt.tool_id,
            level=prompt.level,
            reason=TriggerReason.STALL,
        )
        # Re-arm so an unanswered prompt repeats (the reminding
        # subsystem escalates and eventually gives up).
        self._arm_stall_timer(self._state.current)

    def _refresh_expectation(self, event: StepEvent) -> None:
        assert self._state is not None
        self._expected_tool = self.predictor.predict(self._state).tool_id
        self._arm_stall_timer(event.step_id)

    def _request_prompt(
        self,
        tool_id: int,
        level,
        reason: TriggerReason,
        wrong_tool_id: Optional[int] = None,
    ) -> None:
        self.prompts_requested += 1
        self._episode_prompts += 1
        self._outstanding_prompt = True
        request = PromptRequestEvent(
            time=self.sim.now,
            tool_id=tool_id,
            level=level,
            reason=reason,
            wrong_tool_id=wrong_tool_id,
        )
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(
                self.sim.now,
                "planning.prompt_request",
                tool_id=tool_id,
                level=level.value,
                reason=reason.name,
                wrong_tool_id=wrong_tool_id,
            )
        self.bus.publish(request)

    def _praise(self, event: StepEvent) -> None:
        self.praises_given += 1
        praise = PraiseEvent(
            time=self.sim.now, step_id=event.step_id, message=PRAISE_MESSAGE
        )
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(self.sim.now, "planning.praise", step_id=event.step_id)
        self.bus.publish(praise)

    def _complete_episode(self, event: StepEvent) -> None:
        self._disarm_stall_timer()
        self.episodes_completed += 1
        completed = EpisodeCompletedEvent(
            time=self.sim.now,
            adl_name=self.adl.name,
            steps_taken=self._episode_steps,
            reminders_issued=self._episode_prompts,
        )
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(self.sim.now, "planning.completed", adl=self.adl.name)
        self.bus.publish(completed)
        self._state = None
        self._expected_tool = None
        self._outstanding_prompt = False

    def _arm_stall_timer(self, dwelling_step_id: int) -> None:
        timeout = self.stall_timeout_for(dwelling_step_id)
        if self._stall_event is None:
            self._stall_event = self.sim.schedule(timeout, self._on_stall)
        else:
            self.sim.reschedule(self._stall_event, self.sim.now + timeout)

    def _disarm_stall_timer(self) -> None:
        if self._stall_event is not None:
            self._stall_event.cancel()
            self._stall_event = None

    def reset_episode(self) -> None:
        """Abort any in-progress episode tracking."""
        self._disarm_stall_timer()
        self._state = None
        self._expected_tool = None
        self._outstanding_prompt = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanningSubsystem({self.adl.name!r}, state={self._state}, "
            f"prompts={self.prompts_requested})"
        )
