"""SARSA(λ): the on-policy companion to Watkins Q(λ).

Provided for the on/off-policy ablation: on short deterministic routines
SARSA(λ) and Q(λ) converge to the same greedy policy, but their
learning curves differ under exploration -- a useful sanity check on
the paper's algorithm choice.

Update, per (s, a, r, s', a'):

    δ = r + γ · Q(s', a') − Q(s, a)      (0 target if s' terminal)
    e(s, a) <- visit;  Q += α δ e;  e <- γλ e
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.config import PlanningConfig
from repro.rl.dense import DenseTraces
from repro.rl.learner import TabularLearner

__all__ = ["SarsaLambdaLearner"]

State = Hashable
Action = Hashable


class SarsaLambdaLearner(TabularLearner):
    """Tabular SARSA(λ) with replacing traces."""

    def __init__(self, config: PlanningConfig) -> None:
        super().__init__(config)
        self.trace_decay = float(config.trace_decay)
        # γλ, computed once -- the per-transition trace decay factor.
        self._glambda = self.discount * self.trace_decay
        # One shared index, so interned ids mean the same thing in the
        # table and the traces.
        self.traces = DenseTraces(index=self.q.index)

    def begin_episode(self) -> None:
        """Reset traces at an episode boundary."""
        self.traces.reset()
        self.episodes += 1

    def observe(
        self,
        state: State,
        action: Action,
        reward: float,
        next_state: State,
        next_action: Optional[Action],
        done: bool,
    ) -> float:
        """Apply one SARSA(λ) update; returns the TD error δ.

        ``next_action`` is the action the behaviour policy *will* take
        in ``next_state`` (ignored when ``done``).
        """
        if not done and next_action is None:
            raise ValueError("next_action is required for non-terminal updates")
        # The bootstrap is a single cell read and the trace
        # visit/apply/decay run over the active pairs in first-visit
        # order, so the arithmetic is exactly the table-API update's
        # in tests/oracles/rl.py.
        q = self.q
        sid, aid, _, _ = q.locate(state, action)
        if done:
            target = reward
        else:
            next_sid, next_aid, _, _ = q.locate(next_state, next_action)
            target = reward + self.discount * q.value_at(next_sid, next_aid)
        delta = target - q.value_at(sid, aid)
        self.traces.step(
            q, sid, aid, self.learning_rate * delta, self._glambda
        )
        if done:
            self.traces.reset()
        self.updates += 1
        return delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SarsaLambdaLearner(lambda={self.trace_decay}, "
            f"gamma={self.discount}, updates={self.updates})"
        )
