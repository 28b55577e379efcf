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

from typing import Hashable, Sequence

from repro.core.config import PlanningConfig
from repro.rl.dense import DenseTraces
from repro.rl.learner import TabularLearner

__all__ = ["TDLambdaQLearner"]

State = Hashable
Action = Hashable


class TDLambdaQLearner(TabularLearner):
    """Watkins Q(λ) over a tabular Q function."""

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
        next_actions: Sequence[Action],
        done: bool,
        exploratory: bool = False,
    ) -> float:
        """Apply one Watkins Q(λ) update; returns the TD error δ.

        ``exploratory`` must be True when ``action`` deviated from
        the target (greedy) policy.  Such updates touch only the
        executed pair and reset the traces (strict Watkins cut).
        """
        alpha = self.learning_rate
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
