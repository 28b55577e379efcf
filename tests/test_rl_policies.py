"""Unit tests for behaviour policies."""

import numpy as np
import pytest

from repro.rl.policies import EpsilonGreedyPolicy, GreedyPolicy, SoftmaxPolicy
from repro.rl.dense import DenseQTable
from repro.rl.schedules import ExponentialDecay


@pytest.fixture
def q():
    table = DenseQTable()
    table.set("s", "best", 10.0)
    table.set("s", "mid", 5.0)
    table.set("s", "worst", 0.0)
    return table


ACTIONS = ["best", "mid", "worst"]


class TestGreedy:
    def test_always_argmax_never_exploratory(self, q, rng):
        policy = GreedyPolicy()
        for _ in range(10):
            action, exploratory = policy.select(q, "s", ACTIONS, rng)
            assert action == "best"
            assert not exploratory


class TestEpsilonGreedy:
    def test_epsilon_zero_is_greedy(self, q, rng):
        policy = EpsilonGreedyPolicy(0.0)
        for _ in range(20):
            action, exploratory = policy.select(q, "s", ACTIONS, rng)
            assert action == "best"
            assert not exploratory

    def test_epsilon_one_explores_uniformly(self, q, rng):
        policy = EpsilonGreedyPolicy(1.0)
        picks = [policy.select(q, "s", ACTIONS, rng)[0] for _ in range(600)]
        for action in ACTIONS:
            assert picks.count(action) > 120

    def test_exploratory_flag_only_when_deviating(self, q, rng):
        policy = EpsilonGreedyPolicy(1.0)
        for _ in range(100):
            action, exploratory = policy.select(q, "s", ACTIONS, rng)
            assert exploratory == (action != "best")

    def test_schedule_respected(self, q, rng):
        policy = EpsilonGreedyPolicy(ExponentialDecay(1.0, 0.5))
        late_picks = [
            policy.select(q, "s", ACTIONS, rng, step=50)[0] for _ in range(50)
        ]
        assert all(action == "best" for action in late_picks)

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            EpsilonGreedyPolicy(1.5)

    def test_empty_actions_raises(self, q, rng):
        with pytest.raises(ValueError):
            EpsilonGreedyPolicy(0.1).select(q, "s", [], rng)


class TestSoftmax:
    def test_low_temperature_is_greedy(self, q, rng):
        policy = SoftmaxPolicy(0.01)
        picks = [policy.select(q, "s", ACTIONS, rng)[0] for _ in range(50)]
        assert all(action == "best" for action in picks)

    def test_high_temperature_near_uniform(self, q, rng):
        policy = SoftmaxPolicy(1e6)
        picks = [policy.select(q, "s", ACTIONS, rng)[0] for _ in range(900)]
        for action in ACTIONS:
            assert picks.count(action) > 200

    def test_probabilities_follow_values(self, q, rng):
        policy = SoftmaxPolicy(5.0)
        picks = [policy.select(q, "s", ACTIONS, rng)[0] for _ in range(2000)]
        assert picks.count("best") > picks.count("mid") > picks.count("worst")

    def test_numerical_stability_with_huge_values(self, rng):
        table = DenseQTable()
        table.set("s", "a", 1e9)
        table.set("s", "b", 0.0)
        action, _ = SoftmaxPolicy(1.0).select(table, "s", ["a", "b"], rng)
        assert action == "a"

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            SoftmaxPolicy(0.0)
