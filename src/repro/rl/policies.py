"""Behaviour policies over a :class:`~repro.rl.dense.DenseQTable`.

A policy's :meth:`select` returns ``(action, exploratory)``.  The
``exploratory`` flag matters for Watkins Q(λ): eligibility traces must
be cut after a non-greedy action, so the learner needs to know whether
the behaviour policy deviated from the greedy choice.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Sequence, Tuple

import numpy as np

from repro.rl.dense import DenseQTable
from repro.rl.schedules import ConstantSchedule, Schedule

__all__ = ["Policy", "GreedyPolicy", "EpsilonGreedyPolicy", "SoftmaxPolicy"]

State = Hashable
Action = Hashable


class Policy(ABC):
    """Selects actions given a state and its available actions."""

    @abstractmethod
    def select(
        self,
        q: DenseQTable,
        state: State,
        actions: Sequence[Action],
        rng: np.random.Generator,
        step: int = 0,
    ) -> Tuple[Action, bool]:
        """Return ``(action, exploratory)`` for ``state``."""


class GreedyPolicy(Policy):
    """Always the argmax action; never exploratory."""

    def select(
        self,
        q: DenseQTable,
        state: State,
        actions: Sequence[Action],
        rng: np.random.Generator,
        step: int = 0,
    ) -> Tuple[Action, bool]:
        return q.best_action(state, actions), False


class EpsilonGreedyPolicy(Policy):
    """Greedy with probability 1-ε, uniform otherwise.

    ``epsilon`` may be a float or a :class:`Schedule` evaluated at the
    caller-provided ``step`` (the trainer passes the iteration index).
    A uniformly drawn action that happens to coincide with the greedy
    one is reported as non-exploratory -- Watkins traces only need to
    be cut when the *executed* action disagrees with the greedy one.
    """

    def __init__(self, epsilon) -> None:
        if isinstance(epsilon, Schedule):
            self.epsilon_schedule: Schedule = epsilon
        else:
            value = float(epsilon)
            if not 0.0 <= value <= 1.0:
                raise ValueError("epsilon must be in [0, 1]")
            self.epsilon_schedule = ConstantSchedule(value)

    def select(
        self,
        q: DenseQTable,
        state: State,
        actions: Sequence[Action],
        rng: np.random.Generator,
        step: int = 0,
    ) -> Tuple[Action, bool]:
        if not actions:
            raise ValueError(f"no actions available in state {state!r}")
        greedy = q.best_action(state, actions)
        if rng.random() < self.epsilon_schedule.value(step):
            choice = actions[int(rng.integers(len(actions)))]
            return choice, choice != greedy
        return greedy, False


class SoftmaxPolicy(Policy):
    """Boltzmann exploration: P(a) ∝ exp(Q(s,a)/τ).

    Temperature may be scheduled.  Numerically stabilised by
    subtracting the max Q before exponentiation.
    """

    def __init__(self, temperature) -> None:
        if isinstance(temperature, Schedule):
            self.temperature_schedule: Schedule = temperature
        else:
            value = float(temperature)
            if value <= 0:
                raise ValueError("temperature must be positive")
            self.temperature_schedule = ConstantSchedule(value)

    def select(
        self,
        q: DenseQTable,
        state: State,
        actions: Sequence[Action],
        rng: np.random.Generator,
        step: int = 0,
    ) -> Tuple[Action, bool]:
        raw, ordered = q.action_values_sorted(state, actions)
        values = np.asarray(raw, dtype=float)
        temperature = max(self.temperature_schedule.value(step), 1e-8)
        logits = (values - values.max()) / temperature
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum()
        index = int(rng.choice(len(ordered), p=probabilities))
        choice = ordered[index]
        # First max in the shared repr order = q.best_action's greedy
        # choice, without paying a second sort.
        greedy = ordered[int(values.argmax())]
        return choice, choice != greedy
