"""Parameter schedules (learning rate, exploration, temperature).

A schedule maps a step counter to a value.  The paper notes that the
operator "can set the parameters (converging condition, learning rate,
etc.) to make the learning update all the while instead of
converging" -- constant schedules give that always-adapting mode,
decaying schedules give convergence.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = [
    "Schedule",
    "ConstantSchedule",
    "ExponentialDecay",
    "LinearDecay",
    "HarmonicDecay",
]


class Schedule(ABC):
    """Maps a non-negative step index to a parameter value."""

    @abstractmethod
    def value(self, step: int) -> float:
        """The parameter value at ``step`` (0-based)."""

    def __call__(self, step: int) -> float:
        return self.value(step)


class ConstantSchedule(Schedule):
    """Always the same value."""

    def __init__(self, constant: float) -> None:
        self.constant = float(constant)

    def value(self, step: int) -> float:
        return self.constant


class ExponentialDecay(Schedule):
    """``initial * decay**step``, floored at ``minimum``."""

    def __init__(self, initial: float, decay: float, minimum: float = 0.0) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.initial = float(initial)
        self.decay = float(decay)
        self.minimum = float(minimum)

    def value(self, step: int) -> float:
        return max(self.initial * self.decay**step, self.minimum)


class LinearDecay(Schedule):
    """Linear ramp from ``initial`` to ``final`` over ``span`` steps."""

    def __init__(self, initial: float, final: float, span: int) -> None:
        if span <= 0:
            raise ValueError("span must be positive")
        self.initial = float(initial)
        self.final = float(final)
        self.span = int(span)

    def value(self, step: int) -> float:
        if step >= self.span:
            return self.final
        fraction = step / self.span
        return self.initial + (self.final - self.initial) * fraction


class HarmonicDecay(Schedule):
    """``initial / (1 + step / half_life)`` -- the classic 1/t family.

    Satisfies the Robbins-Monro conditions (sum diverges, sum of
    squares converges), which guarantees tabular Q-learning
    convergence in the limit.
    """

    def __init__(self, initial: float, half_life: float = 10.0) -> None:
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.initial = float(initial)
        self.half_life = float(half_life)

    def value(self, step: int) -> float:
        return self.initial / (1.0 + step / self.half_life)
