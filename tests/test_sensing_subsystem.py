"""Unit tests for the sensing subsystem."""

import pytest

from repro.core.adl import IDLE_STEP_ID
from repro.core.bus import EventBus
from repro.core.config import SensingConfig
from repro.core.events import SensorFrameEvent, StepEvent, ToolUsageEvent
from repro.sensing.subsystem import SensingSubsystem


@pytest.fixture
def subsystem(sim, tea_adl):
    bus = EventBus()
    sensing = SensingSubsystem(
        sim=sim, adl=tea_adl, bus=bus, config=SensingConfig()
    )
    usages, steps = [], []
    bus.subscribe(ToolUsageEvent, usages.append)
    bus.subscribe(StepEvent, steps.append)
    sensing.test_usages = usages
    sensing.test_steps = steps
    return sensing


class TestInjection:
    def test_usage_published_and_recorded(self, subsystem):
        subsystem.inject_usage(1)
        assert [u.tool_id for u in subsystem.test_usages] == [1]
        assert len(subsystem.history) == 1
        assert subsystem.current_step_id == 1

    def test_step_events_on_transition_only(self, subsystem):
        for tool in (1, 1, 2):
            subsystem.inject_usage(tool)
        assert [s.step_id for s in subsystem.test_steps] == [1, 2]
        assert len(subsystem.test_usages) == 3

    def test_foreign_tool_ignored(self, subsystem):
        subsystem.inject_usage(99)
        assert subsystem.test_usages == []
        assert subsystem.frames_ignored == 1
        assert len(subsystem.history) == 0


class TestUsageEvents:
    def test_built_only_for_a_listener(self, sim, tea_adl, monkeypatch):
        built = []
        init = ToolUsageEvent.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ToolUsageEvent, "__init__", counted)
        bus = EventBus()
        sensing = SensingSubsystem(
            sim=sim, adl=tea_adl, bus=bus, config=SensingConfig()
        )
        sensing.inject_usage(1)
        assert built == []
        assert len(sensing.history) == 1
        usages = []
        bus.subscribe(ToolUsageEvent, usages.append)
        sensing.inject_usage(2)
        assert built == [1]
        assert usages == [ToolUsageEvent(time=sim.now, tool_id=2)]


class TestFrames:
    def test_frame_handled_like_usage(self, sim, subsystem):
        subsystem.on_frame(SensorFrameEvent(time=0.0, node_uid=2, sequence=1))
        assert [u.tool_id for u in subsystem.test_usages] == [2]

    def test_foreign_frame_ignored(self, subsystem):
        subsystem.on_frame(SensorFrameEvent(time=0.0, node_uid=77, sequence=1))
        assert subsystem.frames_ignored == 1


class TestIdle:
    def test_idle_step_published_after_timeout(self, sim, subsystem):
        subsystem.inject_usage(1)
        sim.run_until(31.0)
        assert [s.step_id for s in subsystem.test_steps] == [1, IDLE_STEP_ID]

    def test_reset_episode(self, sim, subsystem):
        subsystem.inject_usage(1)
        subsystem.reset_episode()
        assert subsystem.current_step_id == IDLE_STEP_ID
        sim.run_until(100.0)
        # No idle event after reset (timer disarmed).
        assert [s.step_id for s in subsystem.test_steps] == [1]

    def test_history_survives_reset(self, subsystem):
        subsystem.inject_usage(1)
        subsystem.reset_episode()
        assert len(subsystem.history) == 1
