"""Unit tests for batched greedy-policy inference (repro.rl.batch)."""

import numpy as np
import pytest

from oracles.rl import learner_config
from repro.core.adl import ReminderLevel
from repro.planning.action import PromptAction
from repro.planning.predictor import NextStepPredictor
from repro.rl.batch import GreedyPolicyTable, ShardPredictor
from repro.rl.dense import DenseQTable
from repro.rl.double_q import DoubleQLearner
from repro.rl.expected_sarsa import ExpectedSarsaLearner
from repro.rl.sarsa import SarsaLambdaLearner
from repro.rl.tdlambda import TDLambdaQLearner

ACTIONS = ("alpha", "bravo", "charlie", "delta")


def random_dense(rng, n_states=40, initial=0.5):
    q = DenseQTable(initial)
    for s in range(n_states):
        for a in ACTIONS:
            q.set(s, a, float(rng.integers(0, 5)))
    return q


class TestGreedyPolicyTable:
    def test_matches_best_action_on_seen_states(self):
        rng = np.random.default_rng(7)
        q = random_dense(rng)
        policy = GreedyPolicyTable(q, ACTIONS)
        for s in range(40):
            assert policy.lookup(s) == q.best_action(s, ACTIONS)

    def test_unseen_state_matches_best_action(self):
        q = DenseQTable(1.0)
        q.set(0, "alpha", 2.0)
        policy = GreedyPolicyTable(q, ACTIONS)
        # "never-interned" must answer what best_action computes for
        # an all-initial row -- without interning the state.
        assert policy.lookup("ghost") == q.best_action("ghost2", ACTIONS)
        assert "ghost" not in q.index._state_ids

    def test_ties_break_in_repr_order(self):
        q = DenseQTable(0.0)
        q.set(0, "charlie", 3.0)
        q.set(0, "bravo", 3.0)
        policy = GreedyPolicyTable(q, ACTIONS)
        assert policy.lookup(0) == q.best_action(0, ACTIONS) == "bravo"

    def test_invalidated_by_writes(self):
        q = DenseQTable(0.0)
        q.set(0, "alpha", 1.0)
        policy = GreedyPolicyTable(q, ACTIONS)
        assert policy.lookup(0) == "alpha"
        q.set(0, "delta", 9.0)
        assert policy.lookup(0) == "delta"
        q.add(0, "alpha", 10.0)
        assert policy.lookup(0) == "alpha"

    def test_invalidated_by_growth_writes(self):
        q = DenseQTable(0.0)
        q.set(0, "alpha", 1.0)
        policy = GreedyPolicyTable(q, ACTIONS)
        policy.lookup(0)
        # Intern far more states than the initial capacity holds.
        for s in range(1, 300):
            q.set(s, ACTIONS[s % 4], float(s))
        for s in range(300):
            assert policy.lookup(s) == q.best_action(s, ACTIONS)

    def test_empty_action_space_rejected(self):
        with pytest.raises(ValueError):
            GreedyPolicyTable(DenseQTable(0.0), [])


class TestLearnerWritesBumpVersion:
    """Every learner write path must move the version counter.

    The greedy policy tables revalidate against it; a fused fast path
    that writes the flat buffer without bumping it would serve stale
    prompts under online adaptation.
    """

    def run_learner(self, learner):
        before = learner.q.version
        rng = np.random.default_rng(0)
        actions = list(ACTIONS)
        state, nxt = (0, 1), (1, 2)
        for done in (False, True):
            action, exploratory = learner.select_action(
                state, actions, rng
            )
            learner.observe(
                state, action, 1.0, nxt, actions, done,
                exploratory=exploratory,
            )
        assert learner.q.version > before

    def test_tdlambda(self):
        self.run_learner(TDLambdaQLearner(learner_config()))

    def test_sarsa(self):
        learner = SarsaLambdaLearner(learner_config())
        before = learner.q.version
        learner.observe((0, 1), "alpha", 1.0, (1, 2), "bravo", False)
        learner.observe((1, 2), "bravo", 1.0, (2, 3), None, True)
        assert learner.q.version > before

    def test_expected_sarsa(self):
        self.run_learner(ExpectedSarsaLearner(learner_config()))

    def test_dyna(self):
        from repro.rl.dyna import DynaQLearner

        learner = DynaQLearner(learner_config(), planning_steps=3)
        before = learner.q.version
        rng = np.random.default_rng(0)
        actions = list(ACTIONS)
        learner.observe(
            (0, 1), "alpha", 1.0, (1, 2), actions, False, rng=rng
        )
        assert learner.q.version > before

    def test_double_q(self):
        learner = DoubleQLearner(learner_config())
        before = learner.q_a.version + learner.q_b.version
        learner.observe((0, 1), "alpha", 1.0, (1, 2), list(ACTIONS), False)
        assert learner.q_a.version + learner.q_b.version > before


class TestDoubleQPrediction:
    def test_predictor_over_mean_view_tracks_learner_writes(self):
        """Double Q's mean view has no policy table: the predictor
        answers with a fresh ``best_action``, so learner writes to
        either table show up at once."""
        learner = DoubleQLearner(learner_config())
        predictor = NextStepPredictor(learner.q, ACTIONS)
        states = [(prev, cur) for prev in range(3) for cur in range(3)]

        def assert_matches():
            for state in states:
                assert predictor.predict(state) == learner.q.best_action(
                    state, ACTIONS
                )

        assert_matches()
        rng = np.random.default_rng(5)
        for step in range(40):
            state, nxt = states[step % 9], states[(step * 4 + 1) % 9]
            action = ACTIONS[int(rng.integers(0, len(ACTIONS)))]
            learner.observe(
                state, action, float(rng.integers(-2, 5)), nxt,
                list(ACTIONS), False, rng=rng,
            )
            assert_matches()
        learner.q_b.set((2, 2), "delta", 99.0)
        assert predictor.predict((2, 2)) == "delta"


class _StubPredictor:
    def __init__(self, q, actions):
        self.q = q
        self.actions = tuple(actions)
        self.converged = True


class TestShardPredictor:
    def prompt_actions(self):
        return tuple(
            PromptAction(tool, level)
            for tool in (1, 2, 3)
            for level in (ReminderLevel.MINIMAL, ReminderLevel.SPECIFIC)
        )

    def test_matches_wrapped_predictor(self):
        actions = self.prompt_actions()
        rng = np.random.default_rng(3)
        q = DenseQTable(0.0)
        for prev in range(4):
            for cur in range(4):
                for action in actions:
                    q.set((prev, cur), action, float(rng.integers(0, 4)))
        shard = ShardPredictor(_StubPredictor(q, actions)).precompute()
        for prev in range(5):
            for cur in range(5):
                assert shard.predict((prev, cur)) == q.best_action(
                    (prev, cur), actions
                )
                assert (
                    shard.predict_next_tool(prev, cur)
                    == q.best_action((prev, cur), actions).tool_id
                )

    def test_exposes_wrapped_metadata(self):
        actions = self.prompt_actions()
        inner = _StubPredictor(DenseQTable(0.0), actions)
        shard = ShardPredictor(inner)
        assert shard.inner is inner
        assert shard.converged
        assert shard.actions == actions

    def test_uncacheable_table_rejected(self):
        class Opaque:
            pass

        stub = _StubPredictor(Opaque(), self.prompt_actions())
        with pytest.raises(TypeError):
            ShardPredictor(stub)
