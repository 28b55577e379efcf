"""Reward-function abstractions.

A reward function maps ``(state, action, next_state)`` to a scalar, as
in the paper's Figure 3 learning loop ("Reward Function" box).  The
CoReDA-specific instantiation (1000 / 100 / 50 / 0) lives in
``repro.planning.rewards_coreda``; here is the interface it implements.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable

__all__ = ["RewardFunction"]

State = Hashable
Action = Hashable


class RewardFunction(ABC):
    """R : S × A × S → ℝ."""

    @abstractmethod
    def reward(self, state: State, action: Action, next_state: State) -> float:
        """The scalar reward of the transition."""

    def __call__(self, state: State, action: Action, next_state: State) -> float:
        return self.reward(state, action, next_state)
