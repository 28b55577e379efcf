"""Exception hierarchy for the CoReDA reproduction.

Every error raised by the library derives from :class:`CoReDAError`,
so callers can catch one base class at API boundaries.
"""

from __future__ import annotations

__all__ = [
    "CoReDAError",
    "ConfigurationError",
    "UnknownADLError",
    "UnknownStepError",
    "NotConvergedError",
    "RoutineError",
]


class CoReDAError(Exception):
    """Base class for all library errors."""


class ConfigurationError(CoReDAError, ValueError):
    """An invalid or inconsistent configuration value."""


class UnknownADLError(CoReDAError, KeyError):
    """An ADL name not present in the registry."""


class UnknownStepError(CoReDAError, KeyError):
    """A step id that does not belong to the ADL in question."""


class NotConvergedError(CoReDAError):
    """Learning did not reach the requested convergence criterion.

    Raised e.g. when a predictor is asked for guaranteed-precision
    predictions before the planning subsystem's policy converged.
    """


class RoutineError(CoReDAError):
    """A malformed routine (empty, unknown steps, no terminal step)."""
