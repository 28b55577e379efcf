"""Unit tests for the learners' ε-greedy behaviour policy."""

import pytest

from oracles.rl import learner_config
from repro.core.errors import ConfigurationError
from repro.rl.learner import TabularLearner


def _learner(**fields) -> TabularLearner:
    learner = TabularLearner(learner_config(**fields))
    learner.q.set("s", "best", 10.0)
    learner.q.set("s", "mid", 5.0)
    learner.q.set("s", "worst", 0.0)
    return learner


ACTIONS = ["best", "mid", "worst"]


class TestGreedy:
    def test_always_argmax_never_exploratory(self, rng):
        learner = _learner(epsilon=0.0)
        for _ in range(10):
            action, exploratory = learner.select_action("s", ACTIONS, rng)
            assert action == "best"
            assert not exploratory
        assert learner.greedy_action("s", ACTIONS) == "best"


class TestEpsilonGreedy:
    def test_epsilon_zero_is_greedy(self, rng):
        learner = _learner(epsilon=0.0)
        for step in range(20):
            action, exploratory = learner.select_action(
                "s", ACTIONS, rng, step=step
            )
            assert action == "best"
            assert not exploratory

    def test_epsilon_one_explores_uniformly(self, rng):
        learner = _learner(epsilon=1.0)
        picks = [learner.select_action("s", ACTIONS, rng)[0] for _ in range(600)]
        for action in ACTIONS:
            assert picks.count(action) > 120

    def test_exploratory_flag_only_when_deviating(self, rng):
        learner = _learner(epsilon=1.0)
        for _ in range(100):
            action, exploratory = learner.select_action("s", ACTIONS, rng)
            assert exploratory == (action != "best")

    def test_schedule_respected(self, rng):
        learner = _learner(epsilon=1.0, epsilon_decay=0.5)
        late_picks = [
            learner.select_action("s", ACTIONS, rng, step=50)[0]
            for _ in range(50)
        ]
        assert all(action == "best" for action in late_picks)

    def test_invalid_epsilon(self):
        with pytest.raises(ConfigurationError, match="epsilon"):
            _learner(epsilon=1.5)

    def test_empty_actions_raises(self, rng):
        with pytest.raises(ValueError):
            _learner(epsilon=0.1).select_action("s", [], rng)
