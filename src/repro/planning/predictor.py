"""Next-step prediction from a learned policy (paper section 3.3).

After training converges, the greedy policy over the Q-table *is* the
user's personalized routine: in state ⟨StepID_{i-1}, StepID_i⟩ the
greedy action names the tool of step i+1 (and the reminding level the
reward shaping selected, which is MINIMAL wherever both levels guide
correctly).
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

from repro.core.errors import NotConvergedError
from repro.planning.action import PromptAction
from repro.planning.state import PlanningState
from repro.planning.trainer import TrainingResult
from repro.rl.batch import greedy_policy_for
from repro.rl.dense import DenseQTable

__all__ = ["NextStepPredictor"]


class NextStepPredictor:
    """Greedy next-step lookup over a trained Q-table.

    Predictions are served from a lazily-built greedy-policy cache (a
    full argmax table over a dense Q-table, a per-state memo over
    other versioned tables; see :mod:`repro.rl.batch`) keyed on the
    Q-table's monotone write counter.  The answers are those of a
    per-call ``q.best_action`` -- the oracle the tests hold them
    against.  The version check makes the cache safe under online
    adaptation: a learner writing through the same table invalidates
    it instead of leaving stale prompts deployed.
    """

    __slots__ = ("q", "actions", "converged", "_cacheable", "_policy")

    def __init__(
        self,
        q: DenseQTable,
        actions: Sequence[PromptAction],
        converged: bool = True,
    ) -> None:
        if not actions:
            raise ValueError("predictor needs a non-empty action space")
        self.q = q
        self.actions: Tuple[PromptAction, ...] = tuple(actions)
        self.converged = converged
        self._cacheable = True
        self._policy = None

    @classmethod
    def from_training(
        cls,
        result: TrainingResult,
        criterion: float = 0.95,
        require_converged: bool = True,
    ) -> "NextStepPredictor":
        """Build a predictor from a :class:`TrainingResult`.

        With ``require_converged`` (the default), refuses to build
        from a run that never met ``criterion`` -- prompting a
        dementia patient from a half-learned policy is exactly what a
        deployment must not do.
        """
        converged = result.converged(criterion)
        if require_converged and not converged:
            raise NotConvergedError(
                f"training never reached the {criterion:.0%} criterion "
                f"(convergence map: {result.convergence})"
            )
        return cls(result.learner.q, result.actions, converged=converged)

    def predict(
        self, state: Union[PlanningState, Tuple[int, int]]
    ) -> PromptAction:
        """The prompt for ``state`` = ⟨previous StepID, current StepID⟩."""
        policy = self._policy
        if policy is not None:
            return policy.lookup(state)
        if self._cacheable:
            policy = greedy_policy_for(self.q, self.actions)
            if policy is not None:
                self._policy = policy
                return policy.lookup(state)
            # Unknown table type: no version counter to revalidate
            # against, so caching would risk stale prompts.
            self._cacheable = False
        if not isinstance(state, PlanningState):
            state = PlanningState(*state)
        return self.q.best_action(state, self.actions)

    def predict_next_tool(
        self, previous_step_id: int, current_step_id: int
    ) -> int:
        """Just the ToolID of the predicted next step."""
        return self.predict((previous_step_id, current_step_id)).tool_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NextStepPredictor(actions={len(self.actions)}, "
            f"converged={self.converged})"
        )
