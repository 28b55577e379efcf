"""What every tabular learner reads from a :class:`PlanningConfig`.

A learner is built from one config: α (``learning_rate``), the
discount γ, ε and its per-iteration decay, and the initial Q value
are the config's fields, so the config's domain table is the one
place they are checked.  Exploration is ε-greedy with ε at training
iteration ``k`` equal to ``epsilon * epsilon_decay**k`` (a decay of 1
keeps ε constant).  Each learner adds its own ``observe`` update.
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

import numpy as np

from repro.core.config import PlanningConfig
from repro.rl.dense import DenseQTable

__all__ = ["TabularLearner"]

State = Hashable
Action = Hashable


class TabularLearner:
    """A Q-table, the config's settings and ε-greedy exploration."""

    def __init__(self, config: PlanningConfig) -> None:
        self.learning_rate = float(config.learning_rate)
        self.discount = float(config.discount)
        self.epsilon = float(config.epsilon)
        self.epsilon_decay = float(config.epsilon_decay)
        self.q = DenseQTable(config.initial_q)
        self.updates = 0
        self.episodes = 0

    def begin_episode(self) -> None:
        """Count an episode boundary."""
        self.episodes += 1

    def epsilon_at(self, step: int) -> float:
        """ε at training iteration ``step``."""
        return self.epsilon * self.epsilon_decay**step

    def select_action(
        self,
        state: State,
        actions: Sequence[Action],
        rng: np.random.Generator,
        step: int = 0,
    ) -> Tuple[Action, bool]:
        """``(action, exploratory)``: greedy with probability 1-ε,
        uniform otherwise.

        A uniform draw that lands on the greedy action is not
        exploratory: Watkins traces are cut only when the executed
        action disagrees with the greedy one.
        """
        if not actions:
            raise ValueError(f"no actions available in state {state!r}")
        greedy = self.q.best_action(state, actions)
        if rng.random() < self.epsilon_at(step):
            choice = actions[int(rng.integers(len(actions)))]
            return choice, choice != greedy
        return greedy, False

    def greedy_action(self, state: State, actions: Sequence[Action]) -> Action:
        """The current greedy (target-policy) action."""
        return self.q.best_action(state, actions)
