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
from repro.rl.batch import GreedyPolicyTable
from repro.rl.dense import DenseQTable

__all__ = ["NextStepPredictor"]


class NextStepPredictor:
    """Greedy next-step lookup over a trained Q-table.

    Over a :class:`~repro.rl.dense.DenseQTable`, predictions are
    served from a lazily-built :class:`~repro.rl.batch.GreedyPolicyTable`
    keyed on the table's monotone write counter, so a learner writing
    through the same table (online adaptation) invalidates it instead
    of leaving stale prompts deployed.  Any other table (Double Q's
    mean view) answers with a fresh ``q.best_action`` per call.  The
    answers are those of a per-call ``q.best_action`` either way --
    the oracle the tests hold them against.
    """

    __slots__ = ("q", "actions", "converged", "_policy")

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
        if type(self.q) is DenseQTable:
            self._policy = policy = GreedyPolicyTable(self.q, self.actions)
            return policy.lookup(state)
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
