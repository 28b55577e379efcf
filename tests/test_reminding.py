"""Unit tests for the reminding subsystem and its parts."""

import pytest

from repro.adls.tea_making import POT, TEACUP
from repro.core.adl import ReminderLevel
from repro.core.bus import EventBus
from repro.core.config import RemindingConfig
from repro.core.events import (
    DisplayEvent,
    PraiseEvent,
    PromptRequestEvent,
    ReminderEvent,
    TriggerReason,
)
from repro.reminding.display import Display
from repro.reminding.escalation import EscalationPolicy
from repro.reminding.prompts import PRAISE_MESSAGE, render_message
from repro.reminding.subsystem import RemindingSubsystem


class TestPrompts:
    def test_minimal_message_short(self):
        message = render_message(ReminderLevel.MINIMAL, TEACUP, "Mr. Kim")
        assert message == "Please use tea-cup."

    def test_specific_message_personalized(self):
        message = render_message(ReminderLevel.SPECIFIC, TEACUP, "Mr. Kim")
        assert "Mr. Kim" in message
        assert "tea-cup" in message
        assert len(message) > len(
            render_message(ReminderLevel.MINIMAL, TEACUP, "Mr. Kim")
        )

    def test_praise_line(self):
        assert PRAISE_MESSAGE == "Excellent!"


class TestDisplay:
    def test_show_records_and_publishes(self, sim):
        bus = EventBus()
        events = []
        bus.subscribe(DisplayEvent, events.append)
        display = Display(sim, bus=bus)
        display.show("hello", picture="pot.png")
        assert display.current.text == "hello"
        assert len(display) == 1
        assert events[0].picture == "pot.png"

    def test_current_none_before_first_show(self, sim):
        assert Display(sim).current is None


class TestEscalation:
    def test_first_attempts_keep_requested_level(self):
        policy = EscalationPolicy(RemindingConfig(escalate_after=2))
        first = policy.decide(1, ReminderLevel.MINIMAL)
        second = policy.decide(1, ReminderLevel.MINIMAL)
        assert first.level is ReminderLevel.MINIMAL
        assert second.level is ReminderLevel.MINIMAL

    def test_escalates_to_specific(self):
        policy = EscalationPolicy(RemindingConfig(escalate_after=2))
        policy.decide(1, ReminderLevel.MINIMAL)
        policy.decide(1, ReminderLevel.MINIMAL)
        third = policy.decide(1, ReminderLevel.MINIMAL)
        assert third.level is ReminderLevel.SPECIFIC

    def test_gives_up_after_cap(self):
        policy = EscalationPolicy(RemindingConfig(max_reminders_per_step=3))
        for _ in range(3):
            assert not policy.decide(1, ReminderLevel.MINIMAL).give_up
        assert policy.decide(1, ReminderLevel.MINIMAL).give_up

    def test_new_target_resets_attempts(self):
        policy = EscalationPolicy(RemindingConfig(escalate_after=1))
        policy.decide(1, ReminderLevel.MINIMAL)
        policy.decide(1, ReminderLevel.MINIMAL)
        fresh = policy.decide(2, ReminderLevel.MINIMAL)
        assert fresh.level is ReminderLevel.MINIMAL
        assert fresh.attempt == 1

    def test_explicit_reset(self):
        policy = EscalationPolicy(RemindingConfig())
        policy.decide(1, ReminderLevel.MINIMAL)
        policy.reset()
        assert policy.decide(1, ReminderLevel.MINIMAL).attempt == 1


@pytest.fixture
def subsystem(sim, tea_adl):
    bus = EventBus()
    display = Display(sim, bus=bus)
    reminding = RemindingSubsystem(
        sim=sim,
        adl=tea_adl,
        bus=bus,
        config=RemindingConfig(escalate_after=2, max_reminders_per_step=3),
        display=display,
        leds=None,
    )
    reminders = []
    bus.subscribe(ReminderEvent, reminders.append)
    return sim, bus, display, reminding, reminders


def prompt_request(sim, tool_id=2, level=ReminderLevel.MINIMAL,
                   reason=TriggerReason.STALL, wrong=None):
    return PromptRequestEvent(
        time=sim.now, tool_id=tool_id, level=level, reason=reason,
        wrong_tool_id=wrong,
    )


class TestRemindingSubsystem:
    def test_prompt_shown_on_display(self, subsystem):
        sim, bus, display, reminding, reminders = subsystem
        bus.publish(prompt_request(sim))
        assert "electronic-pot" in display.current.text
        assert display.current.picture == POT.picture

    def test_reminder_event_published(self, subsystem):
        sim, bus, display, reminding, reminders = subsystem
        bus.publish(prompt_request(sim, reason=TriggerReason.WRONG_TOOL, wrong=4))
        assert len(reminders) == 1
        assert reminders[0].wrong_tool_id == 4
        assert reminders[0].reason is TriggerReason.WRONG_TOOL

    def test_escalation_applied(self, subsystem):
        sim, bus, display, reminding, reminders = subsystem
        for _ in range(3):
            bus.publish(prompt_request(sim))
        assert [r.level for r in reminders] == [
            ReminderLevel.MINIMAL,
            ReminderLevel.MINIMAL,
            ReminderLevel.SPECIFIC,
        ]

    def test_gives_up_and_alerts_caregiver(self, subsystem):
        sim, bus, display, reminding, reminders = subsystem
        for _ in range(5):
            bus.publish(prompt_request(sim))
        assert len(reminders) == 3
        assert reminding.caregiver_alerts == 2

    def test_praise_shown_and_resets_escalation(self, subsystem):
        sim, bus, display, reminding, reminders = subsystem
        bus.publish(prompt_request(sim))
        bus.publish(PraiseEvent(time=sim.now, step_id=2, message="Excellent!"))
        assert display.current.text == "Excellent!"
        assert reminding.praises_rendered == 1
        assert reminding.escalation.decide(2, ReminderLevel.MINIMAL).attempt == 1

    def test_praise_disabled(self, sim, tea_adl):
        bus = EventBus()
        display = Display(sim, bus=bus)
        reminding = RemindingSubsystem(
            sim=sim,
            adl=tea_adl,
            bus=bus,
            config=RemindingConfig(praise_enabled=False),
            display=display,
        )
        bus.publish(PraiseEvent(time=sim.now, step_id=2, message="Excellent!"))
        assert reminding.praises_rendered == 0
        assert display.current is None
