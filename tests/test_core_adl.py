"""Unit tests for the ADL / step / tool data model."""

import pytest

from repro.core.adl import (
    ADL,
    ADLStep,
    IDLE_STEP_ID,
    Routine,
    SensorType,
    Tool,
)
from repro.core.errors import RoutineError, UnknownStepError


def make_tools(n=4, base=1):
    return [
        Tool(base + i, f"tool-{base + i}", SensorType.ACCELEROMETER)
        for i in range(n)
    ]


def make_adl(n=4):
    return ADL("test-adl", [ADLStep(f"step-{t.tool_id}", t) for t in make_tools(n)])


class TestTool:
    def test_positive_id_required(self):
        with pytest.raises(ValueError):
            Tool(0, "bad", SensorType.PRESSURE)
        with pytest.raises(ValueError):
            Tool(-3, "bad", SensorType.PRESSURE)

    def test_step_id_equals_tool_id(self):
        tool = Tool(9, "cup", SensorType.ACCELEROMETER)
        step = ADLStep("drink", tool)
        assert step.step_id == 9


class TestADL:
    def test_requires_steps(self):
        with pytest.raises(RoutineError):
            ADL("empty", [])

    def test_duplicate_step_ids_rejected(self):
        tool = Tool(1, "a", SensorType.ACCELEROMETER)
        with pytest.raises(RoutineError):
            ADL("dup", [ADLStep("x", tool), ADLStep("y", tool)])

    def test_lookup_by_step_id(self):
        adl = make_adl()
        assert adl.step(2).name == "step-2"
        assert adl.tool(3).name == "tool-3"

    def test_unknown_step_raises(self):
        adl = make_adl()
        with pytest.raises(UnknownStepError):
            adl.step(99)

    def test_terminal_and_ids(self):
        adl = make_adl()
        assert adl.step_ids == [1, 2, 3, 4]
        assert adl.terminal_step_id == 4
        assert len(adl) == 4

    def test_has_step(self):
        adl = make_adl()
        assert adl.has_step(1)
        assert not adl.has_step(IDLE_STEP_ID)

    def test_canonical_routine_matches_order(self):
        adl = make_adl()
        assert list(adl.canonical_routine().step_ids) == [1, 2, 3, 4]


class TestRoutine:
    def test_valid_permutation(self):
        adl = make_adl()
        routine = Routine(adl, [1, 3, 2, 4])
        assert routine.step_ids[0] == 1
        assert routine.terminal_step_id == 4

    def test_empty_rejected(self):
        with pytest.raises(RoutineError):
            Routine(make_adl(), [])

    def test_unknown_step_rejected(self):
        with pytest.raises(RoutineError):
            Routine(make_adl(), [1, 99])

    def test_repeat_rejected(self):
        with pytest.raises(RoutineError):
            Routine(make_adl(), [1, 2, 2, 4])

    def test_next_step(self):
        routine = Routine(make_adl(), [1, 3, 2, 4])
        assert routine.next_step_id(1) == 3
        assert routine.next_step_id(3) == 2
        assert routine.next_step_id(4) is None

    def test_next_step_outside_routine_raises(self):
        routine = Routine(make_adl(), [1, 2])
        with pytest.raises(UnknownStepError):
            routine.next_step_id(3)

    def test_contains(self):
        routine = Routine(make_adl(), [2, 1, 4])
        assert routine.contains(4)
        assert not routine.contains(3)

    def test_equality_and_hash(self):
        adl = make_adl()
        a = Routine(adl, [1, 2, 3, 4])
        b = Routine(adl, [1, 2, 3, 4])
        c = Routine(adl, [1, 3, 2, 4])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
