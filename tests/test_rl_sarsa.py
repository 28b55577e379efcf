"""Unit tests for SARSA(λ)."""

import pytest

from oracles.rl import learner_config
from repro.core.errors import ConfigurationError
from repro.rl.sarsa import SarsaLambdaLearner

ACTIONS = ["left", "right"]


class TestUpdates:
    def test_terminal_update(self):
        learner = SarsaLambdaLearner(learner_config(learning_rate=0.5))
        delta = learner.observe("s", "right", 10.0, "t", None, done=True)
        assert delta == 10.0
        assert learner.q.value("s", "right") == 5.0

    def test_bootstrap_uses_next_action_not_max(self):
        learner = SarsaLambdaLearner(
            learner_config(learning_rate=1.0, discount=0.5, trace_decay=0.0)
        )
        learner.q.set("s2", "left", 4.0)
        learner.q.set("s2", "right", 8.0)
        # On-policy: target uses the action actually chosen ("left"),
        # not the max ("right").
        learner.observe("s1", "left", 1.0, "s2", "left", done=False)
        assert learner.q.value("s1", "left") == pytest.approx(1.0 + 0.5 * 4.0)

    def test_missing_next_action_rejected(self):
        learner = SarsaLambdaLearner(learner_config())
        with pytest.raises(ValueError):
            learner.observe("s", "left", 0.0, "s2", None, done=False)

    def test_traces_propagate_along_chain(self):
        learner = SarsaLambdaLearner(
            learner_config(learning_rate=0.5, discount=0.99, trace_decay=1.0)
        )
        learner.begin_episode()
        learner.observe("s1", "right", 0.0, "s2", "right", done=False)
        learner.observe("s2", "right", 10.0, "t", None, done=True)
        assert learner.q.value("s1", "right") > 0.0

    def test_terminal_resets_traces(self):
        learner = SarsaLambdaLearner(learner_config())
        learner.observe("s", "right", 1.0, "t", None, done=True)
        assert len(learner.traces) == 0


class TestConvergence:
    def test_learns_chain_on_policy(self, rng):
        learner = SarsaLambdaLearner(
            learner_config(
                learning_rate=0.3, discount=0.9, trace_decay=0.5, epsilon=0.2
            )
        )
        for _ in range(400):
            learner.begin_episode()
            state = "s1"
            action, _ = learner.select_action(state, ACTIONS, rng)
            for _ in range(20):
                if action == "right":
                    next_state = "s2" if state == "s1" else "goal"
                    done = next_state == "goal"
                    reward = 10.0 if done else 0.0
                else:
                    next_state, done, reward = state, False, 0.0
                if done:
                    learner.observe(state, action, reward, next_state, None, True)
                    break
                next_action, _ = learner.select_action(next_state, ACTIONS, rng)
                learner.observe(
                    state, action, reward, next_state, next_action, False
                )
                state, action = next_state, next_action
        assert learner.greedy_action("s1", ACTIONS) == "right"
        assert learner.greedy_action("s2", ACTIONS) == "right"


class TestValidation:
    def test_discount_bounds(self):
        with pytest.raises(ConfigurationError, match="discount"):
            SarsaLambdaLearner(learner_config(discount=1.0))

    def test_trace_decay_bounds(self):
        with pytest.raises(ConfigurationError, match="trace_decay"):
            SarsaLambdaLearner(learner_config(trace_decay=-0.1))
