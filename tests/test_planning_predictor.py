"""Unit tests for the next-step predictor."""

import numpy as np
import pytest

from oracles.inference import scalar_predict
from repro.core.errors import NotConvergedError
from repro.planning.predictor import NextStepPredictor
from repro.planning.state import PlanningState, episode_states
from repro.planning.trainer import RoutineTrainer


@pytest.fixture
def training(tea_adl):
    trainer = RoutineTrainer(tea_adl, rng=np.random.default_rng(0))
    routine = tea_adl.canonical_routine()
    return trainer.train([list(routine.step_ids)] * 120, routine=routine)


class TestFromTraining:
    def test_converged_training_builds(self, training):
        predictor = NextStepPredictor.from_training(training)
        assert predictor.converged

    def test_unconverged_training_rejected(self, tea_adl):
        trainer = RoutineTrainer(tea_adl, rng=np.random.default_rng(0))
        result = trainer.train([list(tea_adl.step_ids)] * 3)
        with pytest.raises(NotConvergedError):
            NextStepPredictor.from_training(result)

    def test_unconverged_allowed_when_not_required(self, tea_adl):
        trainer = RoutineTrainer(tea_adl, rng=np.random.default_rng(0))
        result = trainer.train([list(tea_adl.step_ids)] * 3)
        predictor = NextStepPredictor.from_training(
            result, require_converged=False
        )
        assert not predictor.converged


class TestPrediction:
    def test_predicts_routine_next_steps(self, tea_adl, training):
        predictor = NextStepPredictor.from_training(training)
        states = episode_states(tea_adl.step_ids)
        for index in range(len(states) - 1):
            assert (
                predictor.predict(states[index]).tool_id
                == states[index + 1].current
            )

    def test_accepts_plain_tuple(self, training):
        predictor = NextStepPredictor.from_training(training)
        assert predictor.predict((0, 1)) == predictor.predict(PlanningState(0, 1))

    def test_predict_next_tool_shortcut(self, training):
        predictor = NextStepPredictor.from_training(training)
        assert predictor.predict_next_tool(0, 1) == 2

    def test_empty_action_space_rejected(self, training):
        with pytest.raises(ValueError):
            NextStepPredictor(training.learner.q, [])


class TestMemoizedPrediction:
    def all_states(self, tea_adl):
        ids = [0] + list(tea_adl.step_ids)
        return [(prev, cur) for prev in ids for cur in ids]

    def test_memoized_matches_unmemoized(self, tea_adl, training):
        memoized = NextStepPredictor(training.learner.q, training.actions)
        q, actions = training.learner.q, training.actions
        for state in self.all_states(tea_adl):
            assert memoized.predict(state) == scalar_predict(q, actions, state)

    def test_learner_writes_invalidate_memo(self, tea_adl, training):
        """Online adaptation writes through the deployed predictor's
        table; memoized predictions must track them, not go stale."""
        predictor = NextStepPredictor(training.learner.q, training.actions)
        states = self.all_states(tea_adl)
        for state in states:
            predictor.predict(state)
        q = training.learner.q
        for state in states:
            for action in training.actions:
                q.set(PlanningState(*state), action, -float(action.tool_id))
        for state in states:
            assert predictor.predict(state) == scalar_predict(
                q, training.actions, state
            )
