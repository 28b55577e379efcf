"""Reference inference: one ``best_action`` argmax per call.

Production prediction serves precomputed greedy-policy tables
(:mod:`repro.rl.batch`).  The version here computes every answer from
scratch, the way the fast path must reproduce it.
"""

from __future__ import annotations

from repro.planning.state import PlanningState

__all__ = ["ScalarPredictor", "scalar_predict"]


def scalar_predict(q, actions, state):
    """The prompt for ``state``: a fresh ``best_action`` on ``q``."""
    if not isinstance(state, PlanningState):
        state = PlanningState(*state)
    return q.best_action(state, tuple(actions))


class ScalarPredictor:
    """A deployed predictor answering every call with :func:`scalar_predict`.

    Wraps a trained predictor the way
    :class:`~repro.rl.batch.ShardPredictor` does, so tests can swap it
    in for the shard's policy tables.
    """

    def __init__(self, predictor) -> None:
        self.inner = predictor
        self.q = predictor.q
        self.actions = tuple(predictor.actions)
        self.converged = predictor.converged

    def precompute(self) -> "ScalarPredictor":
        return self

    def predict(self, state):
        return scalar_predict(self.q, self.actions, state)

    def predict_next_tool(self, previous_step_id: int, current_step_id: int) -> int:
        return self.predict((previous_step_id, current_step_id)).tool_id
