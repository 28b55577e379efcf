"""Unit tests for the planning action space."""

from repro.core.adl import ReminderLevel
from repro.planning.action import PromptAction, action_space
from repro.planning.state import episode_states


class TestPromptAction:
    def test_fields(self):
        action = PromptAction(3, ReminderLevel.MINIMAL)
        assert action.tool_id == 3
        assert action.level is ReminderLevel.MINIMAL

    def test_repr_paper_notation(self):
        assert repr(PromptAction(2, ReminderLevel.SPECIFIC)) == "<2,specific>"

    def test_minimal_sorts_before_specific(self):
        # The deterministic argmax tie-break relies on this: under
        # equal Q the MINIMAL variant of a tool wins.
        minimal = PromptAction(2, ReminderLevel.MINIMAL)
        specific = PromptAction(2, ReminderLevel.SPECIFIC)
        assert sorted([specific, minimal], key=repr)[0] is minimal


class TestActionSpace:
    def test_two_actions_per_tool(self, tea_adl):
        actions = action_space(tea_adl)
        assert len(actions) == 2 * len(tea_adl)

    def test_covers_all_tools_and_levels(self, tea_adl):
        actions = set(action_space(tea_adl))
        for step_id in tea_adl.step_ids:
            assert PromptAction(step_id, ReminderLevel.MINIMAL) in actions
            assert PromptAction(step_id, ReminderLevel.SPECIFIC) in actions

    def test_deterministic_order(self, tea_adl):
        assert action_space(tea_adl) == action_space(tea_adl)

    def test_largest_adl_sizes(self, registry):
        adl = registry.get("dressing").adl  # the largest ADL (6 steps)
        assert len(action_space(adl)) + len(episode_states(adl.step_ids)) == (
            12 + 6
        )
