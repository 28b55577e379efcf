"""Unit tests for Watkins TD(λ) Q-learning."""

import numpy as np
import pytest

from oracles.rl import learner_config
from repro.core.errors import ConfigurationError
from repro.rl.tdlambda import TDLambdaQLearner

ACTIONS = ["left", "right"]


class TestSingleUpdates:
    def test_terminal_update_moves_toward_reward(self):
        learner = TDLambdaQLearner(learner_config(learning_rate=0.5, discount=0.9))
        delta = learner.observe("s", "right", 10.0, "t", ACTIONS, done=True)
        assert delta == 10.0
        assert learner.q.value("s", "right") == 5.0

    def test_bootstrap_uses_max_next(self):
        learner = TDLambdaQLearner(
            learner_config(learning_rate=1.0, discount=0.5, trace_decay=0.0)
        )
        learner.q.set("s2", "left", 4.0)
        learner.q.set("s2", "right", 8.0)
        learner.observe("s1", "left", 1.0, "s2", ACTIONS, done=False)
        assert learner.q.value("s1", "left") == pytest.approx(1.0 + 0.5 * 8.0)

    def test_exploratory_updates_only_own_pair(self):
        learner = TDLambdaQLearner(
            learner_config(learning_rate=0.5, discount=0.9, trace_decay=0.9)
        )
        # Build an active trace on (s1, right).
        learner.observe("s1", "right", 0.0, "s2", ACTIONS, done=False)
        before = learner.q.value("s1", "right")
        # Exploratory step elsewhere with a large negative-delta
        # reward must not touch (s1, right).
        learner.observe(
            "s2", "left", -100.0, "s3", ACTIONS, done=False, exploratory=True
        )
        assert learner.q.value("s1", "right") == before
        assert learner.q.value("s2", "left") < 0

    def test_exploratory_resets_traces(self):
        learner = TDLambdaQLearner(learner_config())
        learner.observe("s1", "right", 0.0, "s2", ACTIONS, done=False)
        learner.observe("s2", "left", 0.0, "s3", ACTIONS, done=False,
                        exploratory=True)
        assert len(learner.traces) == 0

    def test_greedy_chain_propagates_via_traces(self):
        learner = TDLambdaQLearner(
            learner_config(learning_rate=0.5, discount=0.99, trace_decay=1.0)
        )
        learner.begin_episode()
        learner.observe("s1", "right", 0.0, "s2", ACTIONS, done=False)
        learner.observe("s2", "right", 10.0, "t", ACTIONS, done=True)
        # The terminal delta reaches s1 through its eligibility trace.
        assert learner.q.value("s1", "right") > 0.0

    def test_terminal_resets_traces(self):
        learner = TDLambdaQLearner(learner_config())
        learner.observe("s", "right", 1.0, "t", ACTIONS, done=True)
        assert len(learner.traces) == 0

    def test_update_counter(self):
        learner = TDLambdaQLearner(learner_config())
        learner.observe("s", "right", 1.0, "t", ACTIONS, done=True)
        assert learner.updates == 1

    def test_thousand_transition_stream_updates(self):
        learner = TDLambdaQLearner(
            learner_config(learning_rate=0.1, discount=0.9, trace_decay=0.7)
        )
        actions = list(range(8))
        for i in range(1_000):
            state = (i % 5, (i + 1) % 5)
            next_state = ((i + 1) % 5, (i + 2) % 5)
            learner.observe(
                state, i % 8, 1.0, next_state, actions, done=(i % 4 == 3)
            )
        assert learner.updates > 0


class TestEpisodes:
    def test_begin_episode_clears_traces_and_counts(self):
        learner = TDLambdaQLearner(learner_config())
        learner.observe("s", "right", 0.0, "s2", ACTIONS, done=False)
        learner.begin_episode()
        assert len(learner.traces) == 0
        assert learner.episodes == 1


class TestPolicyIntegration:
    def test_select_action_uses_policy(self, rng):
        learner = TDLambdaQLearner(learner_config(epsilon=0.0))
        learner.q.set("s", "right", 1.0)
        action, exploratory = learner.select_action("s", ACTIONS, rng)
        assert action == "right" and not exploratory

    def test_greedy_action(self):
        learner = TDLambdaQLearner(learner_config())
        learner.q.set("s", "left", 2.0)
        assert learner.greedy_action("s", ACTIONS) == "left"


class TestConvergence:
    def test_learns_two_state_chain_optimal_policy(self, rng):
        # s1 --right--> s2 --right--> goal(+10); "left" loops with 0.
        learner = TDLambdaQLearner(
            learner_config(
                learning_rate=0.3, discount=0.9, trace_decay=0.5, epsilon=0.3
            )
        )
        for _ in range(300):
            learner.begin_episode()
            state = "s1"
            for _ in range(20):
                action, exploratory = learner.select_action(state, ACTIONS, rng)
                if action == "right":
                    next_state = "s2" if state == "s1" else "goal"
                    done = next_state == "goal"
                    reward = 10.0 if done else 0.0
                else:
                    next_state, done, reward = state, False, 0.0
                learner.observe(
                    state, action, reward, next_state, ACTIONS, done, exploratory
                )
                if done:
                    break
                state = next_state
        assert learner.greedy_action("s1", ACTIONS) == "right"
        assert learner.greedy_action("s2", ACTIONS) == "right"
        assert learner.q.value("s2", "right") == pytest.approx(10.0, rel=0.1)


class TestValidation:
    def test_discount_bounds(self):
        with pytest.raises(ConfigurationError, match="discount"):
            TDLambdaQLearner(learner_config(discount=1.0))

    def test_trace_decay_bounds(self):
        with pytest.raises(ConfigurationError, match="trace_decay"):
            TDLambdaQLearner(learner_config(trace_decay=1.5))
