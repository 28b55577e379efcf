"""The planning state space (paper section 2.2).

    "a state s_i = <StepID_{i-1}, StepID_i> is the pair of the current
    and previous StepID"

StepID 0 (idle) appears as the *previous* component at the start of an
episode -- before the first tool is touched the user was doing nothing
-- and as the *current* component while stalled.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from repro.core.adl import IDLE_STEP_ID

__all__ = ["PlanningState", "episode_states"]


class PlanningState(NamedTuple):
    """⟨previous StepID, current StepID⟩."""

    previous: int
    current: int

    def __repr__(self) -> str:
        return f"<{self.previous},{self.current}>"


def episode_states(step_ids: Sequence[int]) -> List[PlanningState]:
    """The state trajectory of one episode.

    For an episode ``[a, b, c]`` the states are ``<0,a>, <a,b>,
    <b,c>`` -- the initial previous-StepID is idle.
    """
    states = []
    previous = IDLE_STEP_ID
    for current in step_ids:
        states.append(PlanningState(previous, current))
        previous = current
    return states
