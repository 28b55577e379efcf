"""Unit tests for the planning state space."""

from repro.planning.state import PlanningState, episode_states


class TestPlanningState:
    def test_is_tuple(self):
        state = PlanningState(1, 2)
        assert state == (1, 2)
        assert state.previous == 1
        assert state.current == 2

    def test_repr_paper_notation(self):
        assert repr(PlanningState(0, 3)) == "<0,3>"

    def test_hashable(self):
        assert len({PlanningState(1, 2), PlanningState(1, 2)}) == 1


class TestEpisodeStates:
    def test_trajectory(self):
        assert episode_states([1, 2, 3]) == [
            PlanningState(0, 1),
            PlanningState(1, 2),
            PlanningState(2, 3),
        ]

    def test_single_step(self):
        assert episode_states([7]) == [PlanningState(0, 7)]

    def test_empty(self):
        assert episode_states([]) == []
