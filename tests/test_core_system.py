"""Integration tests for the CoReDA orchestrator."""

import pytest

from repro.core.config import CoReDAConfig, RemindingConfig
from repro.core.errors import CoReDAError, NotConvergedError
from repro.core.system import CoReDA


class TestLifecycle:
    def test_training_attaches_subsystems(self, tea_definition):
        system = CoReDA.build(tea_definition, CoReDAConfig(seed=0))
        assert system.planning is None
        result = system.train_offline(episodes=120)
        assert result.convergence[0.95] is not None
        assert system.planning is not None
        assert system.reminding is not None
        assert system.predictor is not None

    def test_live_episode_requires_training(self, tea_definition):
        system = CoReDA.build(tea_definition, CoReDAConfig(seed=0))
        resident = system.create_resident()
        with pytest.raises(CoReDAError):
            system.run_episode(resident)

    def test_insufficient_training_raises(self, tea_definition):
        system = CoReDA.build(tea_definition, CoReDAConfig(seed=0))
        with pytest.raises(NotConvergedError):
            system.train_offline(episodes=3)

    def test_unconverged_allowed_when_not_required(self, tea_definition):
        system = CoReDA.build(tea_definition, CoReDAConfig(seed=0))
        system.train_offline(episodes=3, require_converged=False)
        assert system.planning is not None

    def test_train_from_episode_log(self, tea_definition):
        system = CoReDA.build(tea_definition, CoReDAConfig(seed=0))
        log = [[1, 3, 2, 4]] * 120
        result = system.train_offline(episode_log=log)
        assert list(result.routine.step_ids) == [1, 3, 2, 4]

    def test_start_idempotent(self, tea_definition):
        system = CoReDA.build(tea_definition, CoReDAConfig(seed=0))
        system.start()
        system.start()
        assert all(node.running for node in system.network.nodes.values())


class TestStallTimeouts:
    def test_fixed_timeout_when_statistics_disabled(self, tea_definition):
        from dataclasses import replace

        config = replace(
            CoReDAConfig(),
            reminding=RemindingConfig(statistical_timeout=False, stall_timeout=42.0),
        )
        system = CoReDA.build(tea_definition, config)
        assert system.stall_timeout_for(1) == 42.0

    def test_definition_fallback_when_no_history(self, tea_definition):
        system = CoReDA.build(tea_definition, CoReDAConfig())
        step = tea_definition.adl.step(1)
        expected = step.typical_duration + 3.0 * step.duration_sd
        assert system.stall_timeout_for(1) == pytest.approx(expected)

    def test_measured_statistics_preferred(self, tea_definition):
        system = CoReDA.build(tea_definition, CoReDAConfig())
        # Record five dwell samples of ~20 s for tool 1.
        t = 0.0
        for _ in range(5):
            system.sensing.history.append(t, 1)
            t += 20.0
            system.sensing.history.append(t, 2)
            t += 1.0
        timeout = system.stall_timeout_for(1)
        assert timeout == pytest.approx(20.0, abs=2.0)

    def test_minimum_floor(self, tea_definition):
        system = CoReDA.build(tea_definition, CoReDAConfig())
        # Steps with tiny nominal durations still get >= 5 s.
        assert system.stall_timeout_for(2) >= 5.0


class TestSessionLog:
    def test_session_aggregates_episode(self, tea_definition):
        from repro.adls.tea_making import POT, TEACUP

        system = CoReDA.build(tea_definition, CoReDAConfig(seed=1))
        system.train_offline(episodes=120)
        resident = system.create_resident(
            handling_overrides={POT.tool_id: 6.0, TEACUP.tool_id: 5.0}
        )
        system.run_episode(resident)
        assert system.session.completions == 1
        assert system.session.episodes[0].adl_name == "tea-making"


class TestResidentLifecycle:
    def test_finished_residents_leave_the_bus(self, tea_definition):
        from repro.core.events import ReminderEvent
        from repro.fleet.home import reliable_handling
        from repro.resident.dementia import DementiaProfile

        system = CoReDA.build(tea_definition, CoReDAConfig(seed=0))
        system.train_offline(episodes=120)
        baseline = system.bus.handler_count(ReminderEvent)
        counts = []
        outcomes = []
        for episode in range(5):
            resident = system.create_resident(
                dementia=DementiaProfile.from_severity(1.0),
                handling_overrides=reliable_handling(tea_definition),
                error_use_duration=5.0,
                name=f"resident.{episode}",
            )
            outcomes.append(system.run_episode(resident))
            counts.append(system.bus.handler_count(ReminderEvent))
        assert counts == [baseline] * 5
        # Reminders really flowed while old residents were gone.
        assert sum(outcome.reminders_seen for outcome in outcomes) > 0
        # Each outcome counts its own errors, exactly as the trace does.
        errors = sum(outcome.errors for outcome in outcomes)
        assert errors == system.trace.count("resident.error") > 0
