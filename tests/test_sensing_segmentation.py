"""Unit tests for episode segmentation and routine inference."""

import pytest

from repro.core.errors import RoutineError
from repro.sensing.history import UsageHistory
from repro.sensing.segmentation import infer_routine, segment_episodes


def history_from(points):
    history = UsageHistory()
    for time, tool in points:
        history.append(time, tool)
    return history


class TestSegmentation:
    def test_idle_gap_splits_episodes(self):
        history = history_from(
            [(0, 1), (5, 2), (10, 3), (15, 4),
             (100, 1), (105, 2), (110, 3), (115, 4)]
        )
        episodes = segment_episodes(history, idle_gap=30.0)
        assert episodes == [[1, 2, 3, 4], [1, 2, 3, 4]]

    def test_repeated_detections_collapse(self):
        history = history_from([(0, 1), (1, 1), (2, 1), (5, 2), (6, 2)])
        episodes = segment_episodes(history, idle_gap=30.0)
        assert episodes == [[1, 2]]

    def test_fragments_dropped(self):
        history = history_from([(0, 1), (100, 1), (105, 2), (110, 3)])
        episodes = segment_episodes(history, idle_gap=30.0)
        assert episodes == [[1, 2, 3]]

    def test_gap_exactly_at_threshold_does_not_split(self):
        history = history_from([(0, 1), (30, 2)])
        assert segment_episodes(history, idle_gap=30.0) == [[1, 2]]

    def test_empty_history(self):
        assert segment_episodes(UsageHistory()) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            segment_episodes(UsageHistory(), idle_gap=0.0)


class TestInferRoutine:
    def test_modal_complete_episode_wins(self, tea_adl):
        episodes = [[1, 2, 3, 4]] * 5 + [[1, 3, 2, 4]] * 2 + [[1, 3, 4]] * 4
        routine, support = infer_routine(tea_adl, episodes)
        assert list(routine.step_ids) == [1, 2, 3, 4]
        assert support == 5

    def test_incomplete_episodes_ignored(self, tea_adl):
        episodes = [[1, 3, 4]] * 10 + [[1, 3, 2, 4]]
        routine, support = infer_routine(tea_adl, episodes)
        assert list(routine.step_ids) == [1, 3, 2, 4]
        assert support == 1

    def test_no_complete_episode_raises(self, tea_adl):
        with pytest.raises(RoutineError):
            infer_routine(tea_adl, [[1, 2], [3, 4]])

    def test_episode_with_repeats_is_incomplete(self, tea_adl):
        # Visits four steps but repeats one -- not a valid routine.
        with pytest.raises(RoutineError):
            infer_routine(tea_adl, [[1, 2, 2, 4]])


class TestFieldTraining:
    """The watch-then-guide deployment flow, end to end."""

    def test_train_from_observed_history(self, tea_definition):
        from repro.adls.tea_making import POT, TEACUP
        from repro.core.config import CoReDAConfig
        from repro.core.system import CoReDA

        system = CoReDA.build(tea_definition, CoReDAConfig(seed=51))
        reliable = {POT.tool_id: 6.0, TEACUP.tool_id: 5.0}
        # Phase 1: watch 12 unaided episodes (idle time between them).
        for index in range(12):
            resident = system.create_resident(
                handling_overrides=reliable, name=f"watch-{index}"
            )
            system.observe_episode(resident)
            system.sim.run_until(system.sim.now + 120.0)
        # Phase 2: train from what was seen.
        result = system.train_from_history()
        assert list(result.routine.step_ids) == [1, 2, 3, 4]
        assert result.convergence[0.95] is not None
        # Phase 3: guide.
        resident = system.create_resident(
            handling_overrides=reliable, name="guided"
        )
        outcome = system.run_episode(resident)
        assert outcome.completed

    def test_train_from_history_learns_personal_routine(self, tea_definition):
        from repro.adls.tea_making import POT, TEACUP
        from repro.core.adl import Routine
        from repro.core.config import CoReDAConfig
        from repro.core.system import CoReDA

        system = CoReDA.build(tea_definition, CoReDAConfig(seed=52))
        personal = Routine(tea_definition.adl, [1, 3, 2, 4])
        reliable = {POT.tool_id: 6.0, TEACUP.tool_id: 5.0}
        for index in range(12):
            resident = system.create_resident(
                routine=personal, handling_overrides=reliable,
                name=f"watch-{index}",
            )
            system.observe_episode(resident)
            system.sim.run_until(system.sim.now + 120.0)
        result = system.train_from_history()
        assert list(result.routine.step_ids) == [1, 3, 2, 4]
        assert system.predictor.predict_next_tool(0, 1) == 3

    def test_empty_history_rejected(self, tea_definition):
        from repro.core.config import CoReDAConfig
        from repro.core.errors import CoReDAError
        from repro.core.system import CoReDA

        system = CoReDA.build(tea_definition, CoReDAConfig(seed=53))
        with pytest.raises(CoReDAError):
            system.train_from_history()
