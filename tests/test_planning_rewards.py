"""Unit tests for the CoReDA reward function."""

import pytest

from repro.core.adl import ReminderLevel
from repro.core.config import PlanningConfig
from repro.planning.action import PromptAction
from repro.planning.rewards_coreda import CoReDAReward
from repro.planning.state import PlanningState

TERMINAL = 4


@pytest.fixture
def reward():
    return CoReDAReward(PlanningConfig(), terminal_step_id=TERMINAL)


class TestPaperScheme:
    def test_terminal_completion_pays_1000(self, reward):
        state = PlanningState(2, 3)
        action = PromptAction(TERMINAL, ReminderLevel.MINIMAL)
        next_state = PlanningState(3, TERMINAL)
        assert reward.reward(state, action, next_state) == 1000.0

    def test_terminal_pays_1000_regardless_of_level(self, reward):
        state = PlanningState(2, 3)
        next_state = PlanningState(3, TERMINAL)
        specific = PromptAction(TERMINAL, ReminderLevel.SPECIFIC)
        assert reward.reward(state, specific, next_state) == 1000.0

    def test_intermediate_minimal_pays_100(self, reward):
        state = PlanningState(1, 2)
        action = PromptAction(3, ReminderLevel.MINIMAL)
        assert reward.reward(state, action, PlanningState(2, 3)) == 100.0

    def test_intermediate_specific_pays_50(self, reward):
        state = PlanningState(1, 2)
        action = PromptAction(3, ReminderLevel.SPECIFIC)
        assert reward.reward(state, action, PlanningState(2, 3)) == 50.0

    def test_unfollowed_prompt_pays_wrong_reward(self, reward):
        state = PlanningState(1, 2)
        action = PromptAction(1, ReminderLevel.MINIMAL)  # prompts tool 1
        assert reward.reward(state, action, PlanningState(2, 3)) == 0.0

    def test_unfollowed_terminal_prompt_not_rewarded(self, reward):
        state = PlanningState(2, 3)
        action = PromptAction(1, ReminderLevel.MINIMAL)
        assert reward.reward(state, action, PlanningState(3, TERMINAL)) == 0.0


class TestConfigurable:
    def test_custom_wrong_reward(self):
        config = PlanningConfig(wrong_prompt_reward=-10.0)
        reward = CoReDAReward(config, TERMINAL)
        action = PromptAction(1, ReminderLevel.MINIMAL)
        after = PlanningState(2, 3)
        assert reward.reward(PlanningState(1, 2), action, after) == -10.0

    def test_custom_reward_magnitudes(self):
        config = PlanningConfig(
            terminal_reward=500.0, minimal_reward=20.0, specific_reward=10.0
        )
        reward = CoReDAReward(config, TERMINAL)
        minimal = PromptAction(3, ReminderLevel.MINIMAL)
        after = PlanningState(2, 3)
        assert reward.reward(PlanningState(1, 2), minimal, after) == 20.0
