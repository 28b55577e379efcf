"""Unit tests for Expected SARSA."""

import numpy as np
import pytest

from oracles.rl import learner_config
from repro.core.errors import ConfigurationError
from repro.rl.expected_sarsa import ExpectedSarsaLearner

ACTIONS = ["left", "right"]


class TestExpectedValue:
    def test_mixture_of_greedy_and_uniform(self):
        learner = ExpectedSarsaLearner(learner_config(epsilon=0.2))
        learner.q.set("s", "left", 10.0)
        learner.q.set("s", "right", 0.0)
        expected = 0.8 * 10.0 + 0.2 * 5.0
        assert learner.expected_value("s", ACTIONS) == pytest.approx(expected)

    def test_epsilon_zero_equals_max(self):
        learner = ExpectedSarsaLearner(learner_config(epsilon=0.0))
        learner.q.set("s", "left", 3.0)
        learner.q.set("s", "right", 7.0)
        assert learner.expected_value("s", ACTIONS) == 7.0

    def test_epsilon_one_equals_mean(self):
        learner = ExpectedSarsaLearner(learner_config(epsilon=1.0))
        learner.q.set("s", "left", 2.0)
        learner.q.set("s", "right", 6.0)
        assert learner.expected_value("s", ACTIONS) == 4.0

    def test_empty_actions_rejected(self):
        with pytest.raises(ValueError):
            ExpectedSarsaLearner(learner_config()).expected_value("s", [])


class TestUpdates:
    def test_terminal_update(self):
        learner = ExpectedSarsaLearner(learner_config(learning_rate=0.5))
        delta = learner.observe("s", "right", 10.0, "t", ACTIONS, done=True)
        assert delta == 10.0
        assert learner.q.value("s", "right") == 5.0

    def test_bootstrap_uses_expectation(self):
        learner = ExpectedSarsaLearner(
            learner_config(learning_rate=1.0, discount=0.5, epsilon=0.2)
        )
        learner.q.set("s2", "left", 10.0)
        learner.q.set("s2", "right", 0.0)
        learner.observe("s1", "left", 1.0, "s2", ACTIONS, done=False)
        expected_next = 0.8 * 10.0 + 0.2 * 5.0
        assert learner.q.value("s1", "left") == pytest.approx(
            1.0 + 0.5 * expected_next
        )

    def test_epsilon_zero_matches_q_learning_target(self):
        learner = ExpectedSarsaLearner(
            learner_config(learning_rate=1.0, discount=0.5, epsilon=0.0)
        )
        learner.q.set("s2", "left", 4.0)
        learner.q.set("s2", "right", 8.0)
        learner.observe("s1", "left", 1.0, "s2", ACTIONS, done=False)
        assert learner.q.value("s1", "left") == pytest.approx(1.0 + 0.5 * 8.0)

    def test_bootstrap_explores_at_the_iterations_epsilon(self):
        # ε 0.5 decaying by half per iteration: iteration 3 explores at
        # 0.0625, and the expectation must be under that same ε, not
        # the config's 0.5.
        learner = ExpectedSarsaLearner(
            learner_config(
                learning_rate=1.0, discount=0.5, epsilon=0.5,
                epsilon_decay=0.5,
            )
        )
        learner.q.set("s2", "left", 10.0)
        learner.q.set("s2", "right", 0.0)
        learner.select_action("s1", ACTIONS, np.random.default_rng(0), step=3)
        assert learner.behaviour_epsilon == learner.epsilon_at(3) == 0.0625
        expected_next = 0.9375 * 10.0 + 0.0625 * 5.0
        assert learner.expected_value("s2", ACTIONS) == expected_next
        learner.observe("s1", "left", 1.0, "s2", ACTIONS, done=False)
        assert learner.q.value("s1", "left") == 1.0 + 0.5 * expected_next

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="discount"):
            ExpectedSarsaLearner(learner_config(discount=1.0))
        with pytest.raises(ConfigurationError, match="epsilon"):
            ExpectedSarsaLearner(learner_config(epsilon=1.5))


class TestConvergence:
    def test_learns_chain(self, rng):
        learner = ExpectedSarsaLearner(
            learner_config(learning_rate=0.3, discount=0.9, epsilon=0.3)
        )
        for _ in range(400):
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
                learner.observe(state, action, reward, next_state, ACTIONS, done)
                if done:
                    break
                state = next_state
        assert learner.greedy_action("s1", ACTIONS) == "right"
        assert learner.greedy_action("s2", ACTIONS) == "right"
