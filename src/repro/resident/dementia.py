"""Dementia error models.

The paper's care observations motivate two reminder triggers: the
user *stalls* (forgets the next step and does nothing) or *uses the
wrong tool*.  We add perseveration (re-doing the step just finished),
a third error mode well documented in the dementia literature, used
by robustness tests.  Error probabilities scale with a severity knob
so population studies can span the NPO cohort's range ("ages 72-91",
mild to severe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.config import check_domains, domain
from repro.core.errors import ConfigurationError

__all__ = ["ErrorKind", "DementiaProfile", "ScriptedError"]


class ErrorKind:
    """String constants for the error modes."""

    NONE = "none"
    STALL = "stall"
    WRONG_TOOL = "wrong_tool"
    PERSEVERATE = "perseverate"


@dataclass(frozen=True)
class ScriptedError:
    """A deterministic error injected at a specific step index.

    Used by the Figure 1 scenario harness, which needs the wrong tool
    at step 2 and the stall at step 4 to happen exactly.
    """

    kind: str
    wrong_tool_id: Optional[int] = None

    def __post_init__(self) -> None:
        valid = {ErrorKind.STALL, ErrorKind.WRONG_TOOL, ErrorKind.PERSEVERATE}
        if self.kind not in valid:
            raise ValueError(f"unknown error kind {self.kind!r}")
        if self.kind == ErrorKind.WRONG_TOOL and self.wrong_tool_id is None:
            raise ValueError("wrong_tool errors need a wrong_tool_id")


@dataclass(frozen=True)
class DementiaProfile:
    """Per-step error probabilities of one resident."""

    stall_probability: float = domain(0.1, "[0, 1]")
    wrong_tool_probability: float = domain(0.1, "[0, 1]")
    perseveration_probability: float = domain(0.0, "[0, 1]")

    def __post_init__(self) -> None:
        check_domains(self)
        total = (
            self.stall_probability
            + self.wrong_tool_probability
            + self.perseveration_probability
        )
        if total > 1.0:
            raise ConfigurationError(f"error probabilities sum to {total} > 1")

    @classmethod
    def from_severity(cls, severity: float) -> "DementiaProfile":
        """Scale error rates from a severity in [0, 1].

        severity 0 -> error-free; severity 1 -> errors on roughly
        two-thirds of steps.
        """
        if not 0.0 <= severity <= 1.0:
            raise ValueError("severity must be in [0, 1]")
        return cls(
            stall_probability=0.35 * severity,
            wrong_tool_probability=0.25 * severity,
            perseveration_probability=0.05 * severity,
        )

    @classmethod
    def none(cls) -> "DementiaProfile":
        """An error-free profile (used to record training samples)."""
        return cls(0.0, 0.0, 0.0)

    def draw_error(self, rng: np.random.Generator) -> str:
        """Sample the error mode for one step."""
        roll = rng.random()
        if roll < self.stall_probability:
            return ErrorKind.STALL
        roll -= self.stall_probability
        if roll < self.wrong_tool_probability:
            return ErrorKind.WRONG_TOOL
        roll -= self.wrong_tool_probability
        if roll < self.perseveration_probability:
            return ErrorKind.PERSEVERATE
        return ErrorKind.NONE
