"""Prompt-compliance modelling.

Whether a reminder actually gets the user moving depends on its
level: a specific prompt (name, long message, more blinks) is more
salient than a minimal one.  The compliance model captures that with
per-level response probabilities and a lognormal-ish response delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adl import ReminderLevel
from repro.core.config import check_domains, domain
from repro.core.errors import ConfigurationError

__all__ = ["ComplianceModel"]


@dataclass(frozen=True)
class ComplianceModel:
    """Per-level response behaviour of one resident."""

    #: Probability a MINIMAL reminder is acted on.
    minimal_response: float = domain(0.85, "[0, 1]")
    #: Probability a SPECIFIC reminder is acted on.
    specific_response: float = domain(0.97, "[0, 1]")
    #: Mean seconds between noticing a reminder and acting.
    delay_mean: float = domain(4.0, "(0, inf)")
    #: Delay spread (truncated normal; never below delay_floor).
    delay_sd: float = domain(1.5, "[0, inf)")
    delay_floor: float = domain(0.5, "(0, inf)")

    def __post_init__(self) -> None:
        check_domains(self)
        if self.minimal_response > self.specific_response:
            raise ConfigurationError(
                "specific prompts must be at least as effective as minimal"
            )

    def responds(self, level: ReminderLevel, rng: np.random.Generator) -> bool:
        """Does the resident act on a reminder of this level?"""
        probability = (
            self.minimal_response
            if level is ReminderLevel.MINIMAL
            else self.specific_response
        )
        return bool(rng.random() < probability)

    def response_delay(self, rng: np.random.Generator) -> float:
        """Seconds before the resident starts the prompted step."""
        return float(max(rng.normal(self.delay_mean, self.delay_sd), self.delay_floor))

    @classmethod
    def perfect(cls) -> "ComplianceModel":
        """Always responds, minimal delay (deterministic scenarios)."""
        return cls(
            minimal_response=1.0,
            specific_response=1.0,
            delay_mean=2.0,
            delay_sd=0.0,
            delay_floor=0.5,
        )
