"""A Boger-style pre-planned MDP guidance baseline.

Boger & Hoey's hand-washing assistant (the paper's reference [1])
plans prompts with a Markov Decision Process built from a *known*
task model.  We reproduce that style of system: given a routine that
someone (a caregiver / knowledge engineer) has already written down,
build an explicit MDP of the guidance problem -- states are the same
⟨previous, current⟩ pairs CoReDA uses, actions are prompt tools, the
user follows a correct prompt with a compliance probability -- and
solve it exactly with value iteration.

The contrast the baseline comparison draws: the MDP planner needs the
full model up front (no personalization without re-engineering),
whereas CoReDA *learns* the routine from observations.  Given
matching models, both produce the same guidance -- which is itself a
useful validation of the Q-learner.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.adl import Routine
from repro.planning.state import PlanningState, episode_states
from repro.rl.mdp import TabularMDP
from repro.rl.value_iteration import extract_policy, value_iteration

__all__ = ["build_guidance_mdp", "MdpPlannerBaseline"]


def build_guidance_mdp(
    routine: Routine,
    compliance: float = 0.9,
    completion_reward: float = 1000.0,
    step_reward: float = 100.0,
) -> TabularMDP:
    """The guidance MDP of one known routine.

    In every on-routine state the planner may prompt any tool of the
    ADL.  Prompting the correct next tool advances the user with
    probability ``compliance`` (they stay put otherwise); prompting
    anything else leaves them where they are.  Advancing pays
    ``step_reward`` (``completion_reward`` into the terminal state).
    """
    if not 0.0 < compliance <= 1.0:
        raise ValueError("compliance must be in (0, 1]")
    mdp = TabularMDP()
    states = episode_states(list(routine.step_ids))
    tools = [step.step_id for step in routine.adl.steps]
    for index in range(len(states) - 1):
        state, next_state = states[index], states[index + 1]
        entering_terminal = next_state.current == routine.terminal_step_id
        reward = completion_reward if entering_terminal else step_reward
        for tool_id in tools:
            if tool_id == next_state.current:
                mdp.add_transition(
                    state, tool_id, next_state, probability=compliance, reward=reward
                )
                if compliance < 1.0:
                    mdp.add_transition(
                        state, tool_id, state, probability=1.0 - compliance, reward=0.0
                    )
            else:
                mdp.add_transition(state, tool_id, state, probability=1.0, reward=0.0)
    mdp.mark_terminal(states[-1])
    mdp.validate()
    return mdp


class MdpPlannerBaseline:
    """Value-iteration guidance over a hand-authored routine model."""

    def __init__(
        self,
        routine: Routine,
        compliance: float = 0.9,
        discount: float = 0.9,
    ) -> None:
        self.routine = routine
        self.mdp = build_guidance_mdp(routine, compliance=compliance)
        result = value_iteration(self.mdp, discount=discount)
        self.values = result.values
        self.solver_iterations = result.iterations
        self._policy: Dict[PlanningState, int] = extract_policy(
            self.mdp, self.values, discount=discount
        )

    def predict_next_tool(
        self, previous_step_id: int, current_step_id: int
    ) -> Optional[int]:
        """The planned prompt for ⟨previous, current⟩, if modelled."""
        state = PlanningState(previous_step_id, current_step_id)
        return self._policy.get(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MdpPlannerBaseline(routine={list(self.routine.step_ids)}, "
            f"states={len(self._policy)})"
        )
