"""Unit tests for the ε schedule: ε at iteration k is ε·decay^k."""

import pytest

from oracles.rl import learner_config
from repro.core.errors import ConfigurationError
from repro.rl.learner import TabularLearner


def _epsilon_at(epsilon: float, decay: float, step: int) -> float:
    learner = TabularLearner(
        learner_config(epsilon=epsilon, epsilon_decay=decay)
    )
    return learner.epsilon_at(step)


class TestConstant:
    def test_value_everywhere(self):
        assert _epsilon_at(0.3, 1.0, 0) == 0.3
        assert _epsilon_at(0.3, 1.0, 10_000) == 0.3


class TestExponential:
    def test_decay(self):
        assert _epsilon_at(1.0, 0.5, 0) == 1.0
        assert _epsilon_at(1.0, 0.5, 2) == 0.25

    def test_minimum_floor(self):
        # ε never drops below 0: a long decay underflows to exactly 0.
        assert _epsilon_at(1.0, 0.5, 100) > 0.0
        assert _epsilon_at(1.0, 0.5, 2000) == 0.0

    def test_decay_bounds(self):
        with pytest.raises(ConfigurationError, match="epsilon_decay"):
            _epsilon_at(1.0, 0.0, 0)
        with pytest.raises(ConfigurationError, match="epsilon_decay"):
            _epsilon_at(1.0, 1.5, 0)

    def test_decay_of_one_is_constant(self):
        assert _epsilon_at(0.7, 1.0, 500) == 0.7
