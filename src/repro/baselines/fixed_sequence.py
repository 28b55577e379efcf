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

from repro.core.adl import ADL

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FixedSequenceReminder(plan={list(self.plan.step_ids)})"
