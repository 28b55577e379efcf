"""The pre-planned fixed-sequence baseline.

This is the approach the paper criticizes in its related work: guide
every user along the ADL's *canonical* routine, "without considering
different users' preferences".  It needs no training at all -- and the
baseline bench shows exactly where that breaks: any user whose
personal routine deviates from the canonical order gets wrong
guidance at every deviation point.
"""

from __future__ import annotations

from typing import Optional

from repro.core.adl import ADL, ReminderLevel
from repro.planning.action import PromptAction

__all__ = ["FixedSequenceReminder"]


class FixedSequenceReminder:
    """Prompts the next step of a fixed, pre-planned routine."""

    def __init__(self, adl: ADL) -> None:
        self.adl = adl
        self.plan = adl.canonical_routine()

    def predict_next_tool(
        self, previous_step_id: int, current_step_id: int
    ) -> Optional[int]:
        """The plan's step after ``current_step_id``.

        Returns ``None`` when the current step is not on the plan or
        is the plan's terminal step (nothing to prompt).
        """
        if not self.plan.contains(current_step_id):
            return None
        return self.plan.next_step_id(current_step_id)

    def predict(
        self, previous_step_id: int, current_step_id: int
    ) -> Optional[PromptAction]:
        """Prompt-action form of :meth:`predict_next_tool`.

        A fixed-sequence system has no notion of learned minimality;
        it always prompts SPECIFIC (the fully scripted instruction).
        """
        tool_id = self.predict_next_tool(previous_step_id, current_step_id)
        if tool_id is None:
            return None
        return PromptAction(tool_id, ReminderLevel.SPECIFIC)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FixedSequenceReminder(plan={list(self.plan.step_ids)})"
