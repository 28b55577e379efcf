"""Reminder escalation policy (elderly-friendly design).

The learned policy chooses the *preferred* level (MINIMAL wherever it
suffices -- that is what the 100-vs-50 reward gap teaches).  A real
deployment must still cope with a user who does not react: repeated
unanswered reminders for the same expectation escalate to SPECIFIC,
and after a hard cap the system gives up and flags a caregiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.adl import ReminderLevel
from repro.core.config import RemindingConfig

__all__ = ["EscalationDecision", "EscalationPolicy"]


@dataclass(frozen=True)
class EscalationDecision:
    """What to do with one prompt request."""

    level: ReminderLevel
    attempt: int
    give_up: bool


class EscalationPolicy:
    """Tracks attempts per expectation target and escalates.

    The attempt counter resets whenever the expected tool changes
    (progress was made) via :meth:`reset`.
    """

    def __init__(self, config: RemindingConfig) -> None:
        self.config = config
        self._target: Optional[int] = None
        self._attempts = 0

    def decide(
        self, tool_id: int, requested_level: ReminderLevel
    ) -> EscalationDecision:
        """Decide the effective level for a prompt targeting ``tool_id``."""
        if tool_id != self._target:
            self._target = tool_id
            self._attempts = 0
        self._attempts += 1
        if self._attempts > self.config.max_reminders_per_step:
            return EscalationDecision(
                level=ReminderLevel.SPECIFIC, attempt=self._attempts, give_up=True
            )
        level = requested_level
        if self._attempts > self.config.escalate_after:
            level = ReminderLevel.SPECIFIC
        return EscalationDecision(level=level, attempt=self._attempts, give_up=False)

    def reset(self) -> None:
        """Forget the current target (user made progress)."""
        self._target = None
        self._attempts = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EscalationPolicy(target={self._target}, attempts={self._attempts})"
