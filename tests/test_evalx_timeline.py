"""Unit tests for the generic timeline renderer."""

import pytest

from repro.evalx import timeline
from repro.evalx.timeline import render_timeline, timeline_rows
from repro.sim.tracing import TraceRecorder


@pytest.fixture
def trace():
    trace = TraceRecorder()
    trace.emit(1.0, "sensing.step", step_id=1, previous=0)
    trace.emit(5.0, "resident.error", kind="wrong_tool", expected=2,
               wrong_tool=4)
    trace.emit(6.0, "reminder.prompt", tool_id=2, level="minimal",
               reason="WRONG_TOOL", attempt=1, wrong_tool_id=4)
    trace.emit(6.0, "node.led", uid=2, color="green", blinks=3)
    trace.emit(9.0, "sensing.step", step_id=2, previous=1)
    trace.emit(9.0, "reminder.praise", step_id=2)
    trace.emit(30.0, "sensing.step", step_id=0, previous=2)
    trace.emit(40.0, "reminder.gave_up", tool_id=3, attempts=6)
    trace.emit(50.0, "planning.completed", adl="tea-making")
    trace.emit(60.0, "irrelevant.category", x=1)
    return trace


class TestRows:
    def test_rows_in_order_and_filtered(self, trace, tea_adl):
        rows = timeline_rows(trace, tea_adl)
        assert [time for time, *_ in rows] == sorted(
            time for time, *_ in rows
        )
        # The irrelevant category is excluded.
        assert len(rows) == 9

    def test_custom_categories(self, trace, tea_adl, monkeypatch):
        monkeypatch.setattr(timeline, "CATEGORIES", ("reminder.praise",))
        rows = timeline_rows(trace, tea_adl)
        assert len(rows) == 1
        assert rows[0][1] == "praise"


class TestDescriptions:
    def test_step_names_resolved(self, trace, tea_adl):
        text = render_timeline(trace, tea_adl)
        assert "Put tea-leaf into kettle" in text
        assert "idle (nothing used for a while)" in text

    def test_prompt_includes_misused_tool(self, trace, tea_adl):
        text = render_timeline(trace, tea_adl)
        assert "misusing tea-cup" in text

    def test_alert_line(self, trace, tea_adl):
        text = render_timeline(trace, tea_adl)
        assert "caregiver needed" in text

    def test_resident_error_line(self, trace, tea_adl):
        text = render_timeline(trace, tea_adl)
        assert "wrong_tool before electronic-pot (grabbed tea-cup)" in text

    def test_unknown_tool_rendered_gracefully(self, tea_adl):
        trace = TraceRecorder()
        trace.emit(1.0, "node.led", uid=99, color="red", blinks=1)
        text = render_timeline(trace, tea_adl)
        assert "tool#99" in text

    def test_empty_trace_renders_header_only(self, tea_adl):
        text = render_timeline(TraceRecorder(), tea_adl)
        assert "Time (s)" in text


class TestEndToEnd:
    def test_timeline_of_live_episode(self, tea_definition):
        from repro.adls.tea_making import POT, TEACUP
        from repro.core.config import CoReDAConfig
        from repro.core.system import CoReDA
        from repro.resident.compliance import ComplianceModel
        from repro.resident.dementia import ErrorKind, ScriptedError

        system = CoReDA.build(tea_definition, CoReDAConfig(seed=2))
        system.train_offline()
        resident = system.create_resident(
            compliance=ComplianceModel.perfect(),
            error_script={2: ScriptedError(ErrorKind.STALL)},
            handling_overrides={POT.tool_id: 6.0, TEACUP.tool_id: 5.0},
        )
        system.run_episode(resident)
        text = render_timeline(system.trace, tea_definition.adl)
        assert "prompt[" in text
        assert "Excellent!" in text
        assert "finished" in text
