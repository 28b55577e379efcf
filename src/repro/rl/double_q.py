"""Double Q-learning [van Hasselt 2010].

Plain Q-learning's max-operator overestimates action values under
stochastic rewards (maximization bias).  Double Q-learning keeps two
tables and evaluates one's greedy choice with the other, removing the
bias.  CoReDA's rewards are deterministic so the paper's setup does
not need it -- but a *noisy sensing channel* makes observed rewards
stochastic (a correct prompt can look unfollowed when the next
detection is missed), which is exactly the regime where the bias
appears.  Included for completeness of the RL substrate, with tests
demonstrating the bias on the classic two-state counterexample.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence

import numpy as np

from repro.core.config import PlanningConfig
from repro.rl.dense import DenseQTable
from repro.rl.learner import TabularLearner

__all__ = ["DoubleQLearner"]

State = Hashable
Action = Hashable


class DoubleQLearner(TabularLearner):
    """Tabular Double Q-learning over two cross-evaluating tables."""

    def __init__(self, config: PlanningConfig) -> None:
        super().__init__(config)
        # Both tables share one index so states, actions and cached
        # action views are interned exactly once.
        self.q_a = self.q
        self.q_b = DenseQTable(config.initial_q, index=self.q_a.index)
        # The behaviour-facing combined table (mean of both).
        self.q = _MeanQView(self.q_a, self.q_b)

    def observe(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_actions: Sequence[Action],
        done: bool,
        rng: Optional[np.random.Generator] = None,
        exploratory: bool = False,
    ) -> float:
        """One double-Q update (table choice by coin flip).

        ``rng`` drives the coin flip (a deterministic alternation is
        used when omitted); ``exploratory`` is accepted for interface
        compatibility and ignored (no traces here).
        """
        flip_a = (
            bool(rng.random() < 0.5) if rng is not None else self.updates % 2 == 0
        )
        update_table, eval_table = (
            (self.q_a, self.q_b) if flip_a else (self.q_b, self.q_a)
        )
        if done or not next_actions:
            target = reward
        else:
            best = update_table.best_action(next_state, next_actions)
            target = reward + self.discount * eval_table.value(next_state, best)
        delta = target - update_table.value(state, action)
        update_table.add(state, action, self.learning_rate * delta)
        self.updates += 1
        return delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DoubleQLearner(updates={self.updates})"


class _MeanQView:
    """A read-only Q-table facade averaging two tables.

    Works over any two tables returning plain Python floats from
    ``action_values_sorted`` in repr order (the dense tables here, the
    sparse oracle tables in the tests): the per-element ``0.5 * (a +
    b)`` and the first-max scan then produce the same IEEE-754 results
    and the same ties.
    """

    __slots__ = ("_q_a", "_q_b")

    def __init__(self, q_a, q_b) -> None:
        self._q_a = q_a
        self._q_b = q_b

    def value(self, state: State, action: Action) -> float:
        return 0.5 * (self._q_a.value(state, action) + self._q_b.value(state, action))

    def action_values_sorted(self, state: State, actions):
        raw_a, ordered = self._q_a.action_values_sorted(state, actions)
        raw_b, _ = self._q_b.action_values_sorted(state, actions)
        return [0.5 * (a + b) for a, b in zip(raw_a, raw_b)], ordered

    def best_action(self, state: State, actions) -> Action:
        values, ordered = self.action_values_sorted(state, actions)
        best_i = 0
        best_value = values[0]
        for i in range(1, len(values)):
            if values[i] > best_value:
                best_value = values[i]
                best_i = i
        return ordered[best_i]
