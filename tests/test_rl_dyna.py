"""Unit tests for Dyna-Q."""

import numpy as np
import pytest

from oracles.rl import learner_config
from repro.core.errors import ConfigurationError
from repro.rl.dyna import DynaQLearner

ACTIONS = ["left", "right"]


class TestModel:
    def test_model_records_transitions(self, rng):
        learner = DynaQLearner(learner_config(), planning_steps=0)
        learner.observe("s", "right", 1.0, "t", ACTIONS, done=True, rng=rng)
        assert learner.model_size == 1

    def test_model_keeps_latest_outcome(self, rng):
        learner = DynaQLearner(learner_config(), planning_steps=0)
        learner.observe("s", "right", 1.0, "t1", ACTIONS, done=False, rng=rng)
        learner.observe("s", "right", 2.0, "t2", ACTIONS, done=False, rng=rng)
        assert learner.model_size == 1

    def test_planning_updates_counted(self, rng):
        learner = DynaQLearner(learner_config(), planning_steps=7)
        learner.observe("s", "right", 1.0, "t", ACTIONS, done=True, rng=rng)
        assert learner.planning_updates == 7

    def test_no_planning_without_rng(self):
        learner = DynaQLearner(learner_config(), planning_steps=7)
        learner.observe("s", "right", 1.0, "t", ACTIONS, done=True)
        assert learner.planning_updates == 0


class TestLearning:
    def test_planning_accelerates_value_propagation(self, rng):
        # One pass over a 3-step chain: with planning the early states
        # already see the terminal reward; without they do not.
        def run(planning_steps, seed):
            rng = np.random.default_rng(seed)
            learner = DynaQLearner(
                learner_config(learning_rate=0.5, discount=0.9),
                planning_steps=planning_steps,
            )
            chain = [("s1", "s2", 0.0, False), ("s2", "s3", 0.0, False),
                     ("s3", "t", 10.0, True)]
            for _ in range(3):  # a few passes
                for state, next_state, reward, done in chain:
                    learner.observe(
                        state, "right", reward, next_state, ACTIONS, done, rng=rng
                    )
            return learner.q.value("s1", "right")

        assert run(30, seed=0) > run(0, seed=0)

    def test_learns_optimal_policy(self, rng):
        learner = DynaQLearner(
            learner_config(learning_rate=0.3, discount=0.9, epsilon=0.3),
            planning_steps=10,
        )
        for _ in range(150):
            learner.begin_episode()
            state = "s1"
            for _ in range(20):
                action, _ = learner.select_action(state, ACTIONS, rng)
                if action == "right":
                    next_state = "s2" if state == "s1" else "goal"
                    done = next_state == "goal"
                    reward = 10.0 if done else 0.0
                else:
                    next_state, done, reward = state, False, 0.0
                learner.observe(
                    state, action, reward, next_state, ACTIONS, done, rng=rng
                )
                if done:
                    break
                state = next_state
        assert learner.greedy_action("s1", ACTIONS) == "right"
        assert learner.greedy_action("s2", ACTIONS) == "right"


class TestValidation:
    def test_negative_planning_steps(self):
        with pytest.raises(ConfigurationError, match="planning_steps"):
            DynaQLearner(learner_config(), planning_steps=-1)

    def test_discount_bounds(self):
        with pytest.raises(ConfigurationError, match="discount"):
            DynaQLearner(learner_config(discount=1.0))
