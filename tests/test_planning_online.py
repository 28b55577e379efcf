"""Unit & integration tests for online adaptation ("learning all the while")."""

import numpy as np
import pytest

from repro.core.adl import IDLE_STEP_ID, Routine
from repro.core.bus import EventBus
from repro.core.config import CoReDAConfig
from repro.core.errors import ConfigurationError, CoReDAError
from repro.core.events import StepEvent
from repro.core.system import CoReDA
from repro.planning.online import OnlineAdaptation
from repro.planning.state import episode_states
from repro.planning.trainer import RoutineTrainer


def trained_learner(adl, routine, seed=0):
    trainer = RoutineTrainer(adl, rng=np.random.default_rng(seed))
    result = trainer.train([list(routine.step_ids)] * 120, routine=routine)
    return result.learner


def publish_episode(bus, step_ids):
    previous = IDLE_STEP_ID
    for step_id in step_ids:
        bus.publish(StepEvent(time=0.0, step_id=step_id, previous_step_id=previous))
        previous = step_id


class TestEpisodeCollection:
    def test_learns_on_terminal_step(self, tea_adl):
        learner = trained_learner(tea_adl, tea_adl.canonical_routine())
        adaptation = OnlineAdaptation(tea_adl, learner)
        bus = EventBus()
        adaptation.attach(bus)
        publish_episode(bus, [1, 2, 3, 4])
        assert adaptation.episodes_learned == 1

    def test_idle_steps_ignored(self, tea_adl):
        learner = trained_learner(tea_adl, tea_adl.canonical_routine())
        adaptation = OnlineAdaptation(tea_adl, learner)
        bus = EventBus()
        adaptation.attach(bus)
        publish_episode(bus, [1, IDLE_STEP_ID, 2, 3, IDLE_STEP_ID, 4])
        assert adaptation.episodes_learned == 1
        assert adaptation.transitions_seen == 3

    def test_single_step_episode_not_learned(self, tea_adl):
        learner = trained_learner(tea_adl, tea_adl.canonical_routine())
        adaptation = OnlineAdaptation(tea_adl, learner)
        bus = EventBus()
        adaptation.attach(bus)
        publish_episode(bus, [4])  # terminal immediately
        assert adaptation.episodes_learned == 0

    def test_drift_window_validation(self, tea_adl):
        learner = trained_learner(tea_adl, tea_adl.canonical_routine())
        with pytest.raises(ValueError):
            OnlineAdaptation(tea_adl, learner, drift_window=0)

    def test_explores_at_a_constant_epsilon(self, tea_adl):
        learner = trained_learner(tea_adl, tea_adl.canonical_routine())
        OnlineAdaptation(tea_adl, learner, epsilon=0.3)
        assert learner.epsilon_at(0) == learner.epsilon_at(500) == 0.3
        with pytest.raises(ConfigurationError, match="epsilon must be in"):
            OnlineAdaptation(tea_adl, learner, epsilon=1.5)


class TestAdaptationToNewRoutine:
    def test_relearns_changed_routine(self, tea_adl):
        routine_a = tea_adl.canonical_routine()          # 1,2,3,4
        routine_b = Routine(tea_adl, [1, 3, 2, 4])       # the new habit
        learner = trained_learner(tea_adl, routine_a)
        adaptation = OnlineAdaptation(
            tea_adl, learner, rng=np.random.default_rng(1)
        )
        bus = EventBus()
        adaptation.attach(bus)
        for _ in range(25):
            publish_episode(bus, list(routine_b.step_ids))
        states = episode_states(list(routine_b.step_ids))
        for index in range(len(states) - 1):
            greedy = learner.greedy_action(states[index], adaptation.actions)
            assert greedy.tool_id == states[index + 1].current

    def test_drift_signal_drops_then_recovers(self, tea_adl):
        routine_a = tea_adl.canonical_routine()
        routine_b = Routine(tea_adl, [1, 3, 2, 4])
        learner = trained_learner(tea_adl, routine_a)
        adaptation = OnlineAdaptation(
            tea_adl, learner, rng=np.random.default_rng(1), drift_window=6
        )
        bus = EventBus()
        adaptation.attach(bus)
        publish_episode(bus, list(routine_a.step_ids))
        assert adaptation.recent_accuracy == 1.0
        # Switch routines: the pre-learning accuracy dips...
        publish_episode(bus, list(routine_b.step_ids))
        publish_episode(bus, list(routine_b.step_ids))
        assert adaptation.recent_accuracy < 1.0
        # ...and recovers once the new routine has been learned.
        for _ in range(25):
            publish_episode(bus, list(routine_b.step_ids))
        assert adaptation.recent_accuracy == 1.0

    def test_accuracy_none_before_data(self, tea_adl):
        learner = trained_learner(tea_adl, tea_adl.canonical_routine())
        adaptation = OnlineAdaptation(tea_adl, learner)
        assert adaptation.recent_accuracy is None


class TestSystemIntegration:
    def test_requires_training(self, tea_definition):
        system = CoReDA.build(tea_definition, CoReDAConfig(seed=0))
        with pytest.raises(CoReDAError):
            system.enable_online_adaptation()

    def test_live_adaptation_through_full_system(self, tea_definition):
        from repro.adls.tea_making import POT, TEACUP

        system = CoReDA.build(tea_definition, CoReDAConfig(seed=13))
        system.train_offline(episodes=120)
        adaptation = system.enable_online_adaptation()
        new_routine = Routine(tea_definition.adl, [1, 3, 2, 4])
        reliable = {POT.tool_id: 6.0, TEACUP.tool_id: 5.0}
        for index in range(12):
            resident = system.create_resident(
                routine=new_routine,
                handling_overrides=reliable,
                name=f"adaptive-{index}",
            )
            outcome = system.run_episode(resident, horizon=3600.0)
            assert outcome.completed
        assert adaptation.episodes_learned >= 10
        # The deployed predictor now tracks the new routine.
        assert system.predictor.predict_next_tool(1, 3) == 2
