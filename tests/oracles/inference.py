"""Reference inference: one HMM forward pass per model, one argmax per call.

Production recognition stacks every candidate HMM into one
:class:`~repro.recognition.batch.BatchedHMM`, and production
prediction serves precomputed greedy-policy tables
(:mod:`repro.rl.batch`).  The versions here compute every answer from
scratch, the way the fast paths must reproduce them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.planning.state import PlanningState
from repro.recognition.recognizer import ActivityRecognizer

__all__ = ["ScalarPredictor", "ScalarRecognizer", "scalar_predict"]


class ScalarRecognizer(ActivityRecognizer):
    """The recognizer as a loop over each candidate's scalar HMM."""

    def posterior(self, observed: Sequence[int]) -> Dict[str, float]:
        symbols = self._effective_symbols(observed)
        if not symbols:
            uniform = 1.0 / len(self.adls)
            return {adl.name: uniform for adl in self.adls}
        values = [
            self._models[name].log_likelihood(symbols) for name in self._names
        ]
        return self._posterior_from_likelihoods(values)

    def posterior_batch(
        self, streams: Sequence[Sequence[int]]
    ) -> List[Dict[str, float]]:
        return [self.posterior(stream) for stream in streams]


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
