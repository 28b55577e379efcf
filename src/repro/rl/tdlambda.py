"""TD(λ) Q-learning -- the paper's planning algorithm.

This is Watkins' Q(λ) [Watkins 1989; Sutton & Barto 1998, §7.6]: plain
one-step Q-learning augmented with eligibility traces that are *cut*
whenever the behaviour policy takes an exploratory (non-greedy)
action, preserving the off-policy convergence guarantee.

Update, per observed transition (s, a, r, s'):

    δ  = r + γ · max_a' Q(s', a') − Q(s, a)          (0 target if s' terminal)

* greedy a:       e(s, a) <- visit;  Q(x, u) += α δ e(x, u) for all
  active traces;  e <- γλ e
* exploratory a:  Q(s, a) += α δ only, then e <- 0 (the *strict* cut:
  an off-target action's TD error must not be credited to earlier
  pairs, or a large negative δ from a bad action can contaminate the
  values of correct actions visited earlier in the episode)

The learner is deliberately environment-agnostic: callers feed it
transitions (online from the event bus, or offline from logged routine
episodes) and query the greedy action.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.rl.dense import DenseQTable, DenseTraces
from repro.rl.policies import EpsilonGreedyPolicy, Policy
from repro.rl.schedules import ConstantSchedule, Schedule
from repro.rl.traces import TraceKind

__all__ = ["TDLambdaQLearner"]

State = Hashable
Action = Hashable


class TDLambdaQLearner:
    """Watkins Q(λ) over a tabular Q function."""

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
        """Behaviour-policy action for ``state``; see Policy.select."""
        return self.policy.select(self.q, state, actions, rng, step=step)

    def greedy_action(self, state: State, actions: Sequence[Action]) -> Action:
        """The current greedy (target-policy) action."""
        return self.q.best_action(state, actions)

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
        """Apply one Watkins Q(λ) update; returns the TD error δ.

        ``exploratory`` must be True when ``action`` deviated from
        the target (greedy) policy.  Such updates touch only the
        executed pair and reset the traces (strict Watkins cut).
        """
        alpha = self._alpha_const
        if alpha is None:
            alpha = self.learning_rate_schedule.value(self.updates)
        # Every state/action interned once, one capacity guard; the
        # arithmetic (max over given-order Python floats, per-pair
        # multiply-then-add in first-visit order) is exactly that of
        # the table-API update in tests/oracles/rl.py, so the two are
        # bit-identical.
        q = self.q
        if done:
            sid, aid, _, _ = q.locate(state, action)
            target = reward
        else:
            sid, aid, next_sid, view = q.locate(
                state, action, next_state, next_actions
            )
            target = reward + self.discount * max(
                q.row_values(next_sid, view)
            )
        delta = target - q.value_at(sid, aid)
        if exploratory:
            q.add_at(sid, aid, alpha * delta)
            self.traces.reset()
        else:
            self.traces.step(q, sid, aid, alpha * delta, self._glambda)
        if done:
            self.traces.reset()
        self.updates += 1
        return delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TDLambdaQLearner(lambda={self.trace_decay}, "
            f"gamma={self.discount}, updates={self.updates})"
        )
