"""The planning state space (paper section 2.2).

    "a state s_i = <StepID_{i-1}, StepID_i> is the pair of the current
    and previous StepID"

StepID 0 (idle) appears as the *previous* component at the start of an
episode -- before the first tool is touched the user was doing nothing
-- and as the *current* component while stalled.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from repro.core.adl import ADL, IDLE_STEP_ID

__all__ = ["PlanningState", "state_space", "episode_states"]


class PlanningState(NamedTuple):
    """⟨previous StepID, current StepID⟩."""

    previous: int
    current: int

    def __repr__(self) -> str:
        return f"<{self.previous},{self.current}>"


def state_space(adl: ADL, include_idle: bool = True) -> List[PlanningState]:
    """Every syntactically possible state of an ADL.

    The full product space: previous ∈ steps ∪ {idle}, current ∈
    steps ∪ {idle}, excluding self-loops of real steps (the extractor
    never emits the same StepID twice in a row) and the idle-idle
    state.  Deterministic ordering for reproducible iteration.
    """
    ids = list(adl.step_ids)
    if include_idle:
        ids = [IDLE_STEP_ID] + ids
    states = []
    for previous in ids:
        for current in ids:
            if previous == current:
                continue
            states.append(PlanningState(previous, current))
    return states


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
