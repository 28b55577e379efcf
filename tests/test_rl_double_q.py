"""Unit tests for Double Q-learning (incl. the maximization-bias demo)."""

import numpy as np
import pytest

from oracles.rl import learner_config
from repro.core.errors import ConfigurationError
from repro.rl.double_q import DoubleQLearner
from repro.rl.tdlambda import TDLambdaQLearner

ACTIONS = ["left", "right"]


class TestUpdates:
    def test_terminal_update(self, rng):
        learner = DoubleQLearner(learner_config(learning_rate=0.5))
        learner.observe("s", "right", 10.0, "t", ACTIONS, done=True, rng=rng)
        # Exactly one table got the update; the combined view averages.
        assert learner.q.value("s", "right") == 2.5
        values = {learner.q_a.value("s", "right"),
                  learner.q_b.value("s", "right")}
        assert values == {0.0, 5.0}

    def test_cross_evaluation(self):
        learner = DoubleQLearner(learner_config(learning_rate=1.0, discount=0.5))
        # Table A thinks "left" is best at s2; B holds its value.
        learner.q_a.set("s2", "left", 10.0)
        learner.q_b.set("s2", "left", 4.0)
        # Deterministic alternation without rng: update #0 -> table A.
        learner.observe("s1", "right", 0.0, "s2", ACTIONS, done=False)
        # A's greedy ("left") evaluated by B: target = 0.5 * 4.
        assert learner.q_a.value("s1", "right") == pytest.approx(2.0)

    def test_greedy_uses_mean_view(self):
        learner = DoubleQLearner(learner_config())
        learner.q_a.set("s", "left", 10.0)
        learner.q_b.set("s", "left", 0.0)
        learner.q_a.set("s", "right", 4.0)
        learner.q_b.set("s", "right", 4.0)
        assert learner.greedy_action("s", ACTIONS) == "left"

    def test_discount_bounds(self):
        with pytest.raises(ConfigurationError, match="discount"):
            DoubleQLearner(learner_config(discount=1.0))


class TestMaximizationBias:
    """Sutton & Barto's two-state counterexample (ex. 6.7, simplified).

    From A, "right" terminates with 0; "left" goes to B, from which
    every action terminates with reward ~N(-0.1, 1).  The optimal
    choice at A is "right", but plain Q-learning's max over B's noisy
    values makes "left" look attractive; Double Q resists.
    """

    B_ACTIONS = [f"b{i}" for i in range(8)]

    def _run(self, learner, rng, episodes=300):
        for _ in range(episodes):
            learner.begin_episode()
            action, flag = learner.select_action("A", ACTIONS, rng)
            if action == "right":
                self._observe(learner, "A", action, 0.0, "T", [], True, rng,
                              flag)
                continue
            self._observe(learner, "A", action, 0.0, "B", self.B_ACTIONS,
                          False, rng, flag)
            b_action, b_flag = learner.select_action(
                "B", self.B_ACTIONS, rng
            )
            reward = float(rng.normal(-0.1, 1.0))
            self._observe(learner, "B", b_action, reward, "T", [], True, rng,
                          b_flag)

    @staticmethod
    def _observe(learner, state, action, reward, next_state, next_actions,
                 done, rng, exploratory):
        if isinstance(learner, DoubleQLearner):
            learner.observe(state, action, reward, next_state, next_actions,
                            done, rng=rng, exploratory=exploratory)
        else:
            learner.observe(state, action, reward, next_state,
                            next_actions or ["noop"], done,
                            exploratory=exploratory)

    def test_double_q_less_biased_than_q(self):
        double = DoubleQLearner(
            learner_config(learning_rate=0.1, discount=0.99, epsilon=0.3)
        )
        plain = TDLambdaQLearner(
            learner_config(
                learning_rate=0.1, discount=0.99, trace_decay=0.0, epsilon=0.3
            )
        )
        self._run(double, np.random.default_rng(7))
        self._run(plain, np.random.default_rng(7))
        # Plain Q overestimates the value of "left" at A relative to
        # Double Q (the bias), measured on the same episode stream.
        assert double.q.value("A", "left") < plain.q.value("A", "left")

    def test_double_q_learns_simple_chain(self, rng):
        learner = DoubleQLearner(
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
                learner.observe(state, action, reward, next_state, ACTIONS,
                                done, rng=rng)
                if done:
                    break
                state = next_state
        assert learner.greedy_action("s1", ACTIONS) == "right"
        assert learner.greedy_action("s2", ACTIONS) == "right"
