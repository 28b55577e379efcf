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

from typing import Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.rl.dense import DenseQTable, DenseTraces
from repro.rl.policies import EpsilonGreedyPolicy, Policy
from repro.rl.schedules import ConstantSchedule, Schedule
from repro.rl.traces import TraceKind

__all__ = ["SarsaLambdaLearner"]

State = Hashable
Action = Hashable


class SarsaLambdaLearner:
    """Tabular SARSA(λ) with replacing or accumulating traces."""

    def __init__(
        self,
        learning_rate=0.2,
        discount: float = 0.9,
        trace_decay: float = 0.7,
        policy: Optional[Policy] = None,
        trace_kind: TraceKind = TraceKind.REPLACING,
        initial_q: float = 0.0,
    ) -> None:
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if not 0.0 <= trace_decay <= 1.0:
            raise ValueError("trace_decay must be in [0, 1]")
        if isinstance(learning_rate, Schedule):
            self.learning_rate_schedule: Schedule = learning_rate
        else:
            self.learning_rate_schedule = ConstantSchedule(float(learning_rate))
        # Constant learning rates (the common case) skip the schedule
        # call on every transition.
        self._alpha_const = (
            self.learning_rate_schedule.constant
            if type(self.learning_rate_schedule) is ConstantSchedule
            else None
        )
        self.discount = float(discount)
        self.trace_decay = float(trace_decay)
        # γλ, computed once -- the per-transition trace decay factor.
        self._glambda = self.discount * self.trace_decay
        self.policy: Policy = policy if policy is not None else EpsilonGreedyPolicy(0.2)
        self.q = DenseQTable(initial_q)
        # One shared index, so interned ids mean the same thing in the
        # table and the traces.
        self.traces = DenseTraces(index=self.q.index, kind=trace_kind)
        self.updates = 0
        self.episodes = 0

    def begin_episode(self) -> None:
        """Reset traces at an episode boundary."""
        self.traces.reset()
        self.episodes += 1

    def select_action(
        self,
        state: State,
        actions: Sequence[Action],
        rng: np.random.Generator,
        step: int = 0,
    ) -> Tuple[Action, bool]:
        """Behaviour-policy action for ``state``."""
        return self.policy.select(self.q, state, actions, rng, step=step)

    def greedy_action(self, state: State, actions: Sequence[Action]) -> Action:
        """The current greedy action."""
        return self.q.best_action(state, actions)

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
        alpha = self._alpha_const
        if alpha is None:
            alpha = self.learning_rate_schedule.value(self.updates)
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
        self.traces.step(q, sid, aid, alpha * delta, self._glambda)
        if done:
            self.traces.reset()
        self.updates += 1
        return delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SarsaLambdaLearner(lambda={self.trace_decay}, "
            f"gamma={self.discount}, updates={self.updates})"
        )
