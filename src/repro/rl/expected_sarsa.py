"""Expected SARSA [van Seijen et al. 2009].

On-policy like SARSA but bootstraps from the *expectation* of the
next action under the behaviour policy rather than the sampled next
action, cutting update variance.  With an ε-greedy policy exploring
at ε in the current iteration:

    target = r + γ [ (1-ε) max_a Q(s',a) + ε · mean_a Q(s',a) ]

Completes the RL substrate's on-policy family; at ε → 0 it coincides
with Q-learning, which the tests pin down.
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

import numpy as np

from repro.core.config import PlanningConfig
from repro.rl.learner import TabularLearner

__all__ = ["ExpectedSarsaLearner"]

State = Hashable
Action = Hashable


class ExpectedSarsaLearner(TabularLearner):
    """Tabular Expected SARSA with an ε-greedy behaviour policy.

    The bootstrap's expectation is under the behaviour policy of the
    current iteration: ``select_action(step=k)`` explores at
    ``epsilon_at(k)`` and keeps it as :attr:`behaviour_epsilon`, which
    :meth:`observe` and :meth:`expected_value` then use.  Before any
    selection it is ``epsilon_at(0)``, the config's ε.
    """

    def __init__(self, config: PlanningConfig) -> None:
        super().__init__(config)
        self.behaviour_epsilon = self.epsilon

    def select_action(
        self,
        state: State,
        actions: Sequence[Action],
        rng: np.random.Generator,
        step: int = 0,
    ) -> Tuple[Action, bool]:
        """ε-greedy at iteration ``step``; the ε is kept to bootstrap."""
        self.behaviour_epsilon = self.epsilon_at(step)
        return super().select_action(state, actions, rng, step)

    def expected_value(self, state: State, actions: Sequence[Action]) -> float:
        """E_π[Q(state, ·)] under the ε-greedy behaviour policy.

        The mean is taken with Python's left-to-right ``sum``, as in
        :meth:`observe` -- NumPy's pairwise summation rounds
        differently, and the two must agree bit-for-bit.
        """
        if not actions:
            raise ValueError(f"no actions available in state {state!r}")
        values = self.q.action_values(state, actions)
        greedy = max(values)
        uniform = sum(values) / len(values)
        epsilon = self.behaviour_epsilon
        return (1.0 - epsilon) * greedy + epsilon * uniform

    def observe(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_actions: Sequence[Action],
        done: bool,
        exploratory: bool = False,
    ) -> float:
        """One Expected SARSA update; returns the TD error."""
        # The expectation runs over the given-order row -- the same
        # value sequence q.action_values returns -- with Python's
        # left-to-right max/sum, so it is bit-identical to the
        # table-API update in tests/oracles/rl.py.
        q = self.q
        if done or not next_actions:
            sid, aid, _, _ = q.locate(state, action)
            target = reward
        else:
            sid, aid, next_sid, view = q.locate(
                state, action, next_state, next_actions
            )
            values = q.row_values(next_sid, view)
            greedy = max(values)
            uniform = sum(values) / len(values)
            epsilon = self.behaviour_epsilon
            expected = (1.0 - epsilon) * greedy + epsilon * uniform
            target = reward + self.discount * expected
        delta = target - q.value_at(sid, aid)
        q.add_at(sid, aid, self.learning_rate * delta)
        self.updates += 1
        return delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExpectedSarsaLearner(epsilon={self.epsilon}, updates={self.updates})"
