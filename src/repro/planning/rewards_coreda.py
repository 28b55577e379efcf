"""The CoReDA reward function (paper section 2.2).

    "For terminal step of an ADL, a large reward 1000 is given to
    encourage the completion of ADL.  For intermediate steps, a bigger
    reward 100 is given when a minimal reminding is provided, and a
    smaller reward 50 is given when a specific reminding is provided.
    This promotes the user to exercise his/her brain instead of
    depending on the system."

One interpretation detail the paper leaves implicit: the reward must
be contingent on the prompt actually *guiding the user into the
observed next step*.  A prompt for the wrong tool that the user
ignores cannot earn 100 points, or the policy would never learn which
tool to prompt.  We therefore pay the stated rewards only when
``action.tool_id`` equals the next state's current StepID, and
``wrong_prompt_reward`` (default 0) otherwise.  This is the unique
reading under which the stated reward scheme produces the paper's
Table 4 behaviour (100% correct next-step prediction), and it is
configurable for the reward-shape ablation.
"""

from __future__ import annotations

from repro.core.adl import ReminderLevel
from repro.core.config import PlanningConfig
from repro.planning.action import PromptAction
from repro.planning.state import PlanningState

__all__ = ["CoReDAReward"]


class CoReDAReward:
    """R(⟨·,·⟩, ⟨tool, level⟩, ⟨·, next⟩) per the paper's scheme."""

    def __init__(self, config: PlanningConfig, terminal_step_id: int) -> None:
        self.config = config
        self.terminal_step_id = terminal_step_id

    def reward(
        self,
        state: PlanningState,
        action: PromptAction,
        next_state: PlanningState,
    ) -> float:
        """The scalar reward of the transition."""
        if action.tool_id != next_state.current:
            return self.config.wrong_prompt_reward
        if next_state.current == self.terminal_step_id:
            return self.config.terminal_reward
        if action.level is ReminderLevel.MINIMAL:
            return self.config.minimal_reward
        return self.config.specific_reward

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CoReDAReward(terminal={self.terminal_step_id}, "
            f"{self.config.terminal_reward}/{self.config.minimal_reward}/"
            f"{self.config.specific_reward}/{self.config.wrong_prompt_reward})"
        )
