"""Unit tests for the baseline guidance systems."""

import pytest

from repro.baselines.fixed_sequence import FixedSequenceReminder
from repro.baselines import mdp_planner
from repro.baselines.mdp_planner import MdpPlannerBaseline, build_guidance_mdp
from repro.baselines.ngram import NGramPredictor
from repro.core.adl import IDLE_STEP_ID, ReminderLevel, Routine


class TestFixedSequence:
    def test_follows_canonical_plan(self, tea_adl):
        baseline = FixedSequenceReminder(tea_adl)
        assert baseline.predict_next_tool(0, 1) == 2
        assert baseline.predict_next_tool(1, 2) == 3

    def test_terminal_has_no_next(self, tea_adl):
        baseline = FixedSequenceReminder(tea_adl)
        assert baseline.predict_next_tool(3, 4) is None

    def test_ignores_personalization(self, tea_adl):
        # A user whose routine is 1,3,2,4 still gets canonical advice.
        baseline = FixedSequenceReminder(tea_adl)
        assert baseline.predict_next_tool(1, 3) == 4  # user actually does 2

    def test_custom_plan(self, tea_adl):
        baseline = FixedSequenceReminder(tea_adl)
        baseline.plan = Routine(tea_adl, [1, 3, 2, 4])
        assert baseline.predict_next_tool(1, 3) == 2

    def test_prompt_action_always_specific(self, tea_adl):
        baseline = FixedSequenceReminder(tea_adl)
        assert baseline.predict(0, 1).level is ReminderLevel.SPECIFIC
        assert baseline.predict(3, 4) is None


class TestNGram:
    def test_bigram_learns_successors(self):
        model = NGramPredictor(order=1).fit([[1, 2, 3, 4]] * 10)
        assert model.predict_next_tool(0, 1) == 2
        assert model.predict_next_tool(2, 3) == 4

    def test_unseen_context_returns_none(self):
        model = NGramPredictor(order=2).fit([[1, 2, 3]])
        assert model.predict_next_tool(9, 9) is None

    def test_order2_disambiguates_by_history(self):
        # After step 2 the next step depends on how 2 was reached:
        # 1,2 -> 3 but 3,2 -> 4 (two interleaved routines).
        episodes = [[1, 2, 3]] * 5 + [[3, 2, 4]] * 5
        order1 = NGramPredictor(order=1).fit(episodes)
        order2 = NGramPredictor(order=2).fit(episodes)
        assert order2.predict_next_tool(1, 2) == 3
        assert order2.predict_next_tool(3, 2) == 4
        # Order 1 must give the same answer for both contexts.
        assert order1.predict_next_tool(1, 2) == order1.predict_next_tool(3, 2)

    def test_majority_wins(self):
        episodes = [[1, 2]] * 7 + [[1, 3]] * 3
        model = NGramPredictor(order=1).fit(episodes)
        assert model.predict_next_tool(IDLE_STEP_ID, 1) == 2

    def test_order_validation(self):
        with pytest.raises(ValueError):
            NGramPredictor(order=3)


class TestMdpPlanner:
    def test_plans_known_routine(self, tea_adl):
        planner = MdpPlannerBaseline(tea_adl.canonical_routine())
        assert planner.predict_next_tool(0, 1) == 2
        assert planner.predict_next_tool(1, 2) == 3
        assert planner.predict_next_tool(2, 3) == 4

    def test_unmodelled_state_returns_none(self, tea_adl):
        planner = MdpPlannerBaseline(tea_adl.canonical_routine())
        assert planner.predict_next_tool(2, 1) is None

    def test_plans_personalized_routine_if_given_model(self, tea_adl):
        routine = Routine(tea_adl, [1, 3, 2, 4])
        planner = MdpPlannerBaseline(routine)
        assert planner.predict_next_tool(1, 3) == 2

    def test_guidance_mdp_is_valid(self, tea_adl, monkeypatch):
        monkeypatch.setattr(mdp_planner, "COMPLIANCE", 0.8)
        mdp = build_guidance_mdp(tea_adl.canonical_routine())
        mdp.validate()

    def test_full_compliance_has_no_self_loops_on_correct(
        self, tea_adl, monkeypatch
    ):
        monkeypatch.setattr(mdp_planner, "COMPLIANCE", 1.0)
        mdp = build_guidance_mdp(tea_adl.canonical_routine())
        outcomes = mdp.outcomes((0, 1), 2)
        assert len(outcomes) == 1
        assert outcomes[0].next_state == (1, 2)
