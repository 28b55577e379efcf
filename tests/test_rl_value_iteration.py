"""Unit tests for value iteration and policy extraction."""

import importlib

import pytest

from repro.rl.mdp import TabularMDP
from repro.rl.value_iteration import (
    extract_policy,
    q_values,
    value_iteration,
)

#: The module (``repro.rl`` re-exports its function under its name).
solver = importlib.import_module("repro.rl.value_iteration")


def chain_mdp():
    """s1 -> s2 -> goal with +10 at the end; 'stay' loops with 0."""
    mdp = TabularMDP()
    mdp.add_transition("s1", "go", "s2", reward=0.0)
    mdp.add_transition("s1", "stay", "s1", reward=0.0)
    mdp.add_transition("s2", "go", "goal", reward=10.0)
    mdp.add_transition("s2", "stay", "s2", reward=0.0)
    mdp.mark_terminal("goal")
    return mdp


class TestValueIteration:
    def test_chain_values(self, monkeypatch):
        monkeypatch.setattr(solver, "TOLERANCE", 1e-10)
        result = value_iteration(chain_mdp())
        assert result.values["s2"] == pytest.approx(10.0)
        assert result.values["s1"] == pytest.approx(9.0)
        assert result.values["goal"] == 0.0
        assert result.residual <= 1e-10

    def test_stochastic_transition_expected_value(self):
        mdp = TabularMDP()
        mdp.add_transition("s", "a", "win", probability=0.5, reward=10.0)
        mdp.add_transition("s", "a", "lose", probability=0.5, reward=0.0)
        mdp.mark_terminal("win")
        mdp.mark_terminal("lose")
        result = value_iteration(mdp)
        assert result.values["s"] == pytest.approx(5.0)

    def test_discount_zero_is_myopic(self, monkeypatch):
        monkeypatch.setattr(solver, "DISCOUNT", 0.0)
        result = value_iteration(chain_mdp())
        assert result.values["s1"] == 0.0
        assert result.values["s2"] == 10.0

    def test_max_iterations_respected(self, monkeypatch):
        monkeypatch.setattr(solver, "TOLERANCE", 0.0)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 3)
        result = value_iteration(chain_mdp())
        assert result.iterations == 3


class TestPolicyExtraction:
    def test_optimal_policy(self):
        mdp = chain_mdp()
        result = value_iteration(mdp)
        policy = extract_policy(mdp, result.values)
        assert policy == {"s1": "go", "s2": "go"}

    def test_terminal_excluded_from_policy(self):
        mdp = chain_mdp()
        result = value_iteration(mdp)
        policy = extract_policy(mdp, result.values)
        assert "goal" not in policy


class TestQValues:
    def test_q_consistency(self, monkeypatch):
        monkeypatch.setattr(solver, "TOLERANCE", 1e-10)
        mdp = chain_mdp()
        result = value_iteration(mdp)
        q = q_values(mdp, result.values)
        assert q["s2"]["go"] == pytest.approx(10.0)
        assert q["s2"]["stay"] == pytest.approx(9.0)
        assert max(q["s1"].values()) == pytest.approx(result.values["s1"])
