"""Unit tests for the ADL library."""

import pytest

from repro.adls.library import ADLDefinition, ADLRegistry, default_registry
from repro.adls.tea_making import make_tea_making
from repro.core.adl import SensorType
from repro.core.errors import UnknownADLError


class TestRegistry:
    def test_default_contains_all_five(self, registry):
        assert registry.names() == [
            "coffee-making",
            "dressing",
            "hand-washing",
            "tea-making",
            "tooth-brushing",
        ]

    def test_get_caches(self, registry):
        assert registry.get("tea-making") is registry.get("tea-making")

    def test_unknown_raises(self, registry):
        with pytest.raises(UnknownADLError):
            registry.get("cooking")

    def test_contains(self, registry):
        assert "dressing" in registry.names()
        assert "cooking" not in registry.names()

    def test_duplicate_registration_rejected(self):
        registry = ADLRegistry()
        registry.register("x", lambda: None)
        with pytest.raises(ValueError):
            registry.register("x", lambda: None)


class TestPaperADLs:
    def test_tea_making_table2(self, tea_definition):
        adl = tea_definition.adl
        assert [s.name for s in adl.steps] == [
            "Put tea-leaf into kettle",
            "Pour hot water into kettle",
            "Pour tea into tea cup",
            "Drink a cup of tea",
        ]
        # Pressure on pot, accelerometers elsewhere (paper Table 2).
        sensors = [s.tool.sensor for s in adl.steps]
        assert sensors[1] == SensorType.PRESSURE
        assert all(
            s == SensorType.ACCELEROMETER for i, s in enumerate(sensors) if i != 1
        )

    def test_tooth_brushing_table2(self, tooth_definition):
        adl = tooth_definition.adl
        assert [s.name for s in adl.steps] == [
            "Put toothpaste on the brush",
            "Brush the teeth",
            "Gargle with water",
            "Dry with a towel",
        ]
        assert all(
            s.tool.sensor == SensorType.ACCELEROMETER for s in adl.steps
        )

    def test_short_steps_have_short_handling(self, tea_definition,
                                             tooth_definition):
        # The paper attributes low extract precision to short durations;
        # the definitions must encode that.
        tea = tea_definition.adl
        tooth = tooth_definition.adl
        handlings_tea = {s.name: s.handling_duration for s in tea.steps}
        handlings_tooth = {s.name: s.handling_duration for s in tooth.steps}
        assert handlings_tea["Pour hot water into kettle"] == min(
            handlings_tea.values()
        )
        assert handlings_tooth["Dry with a towel"] == min(
            handlings_tooth.values()
        )

    def test_every_tool_has_a_profile(self, registry):
        for name in registry.names():
            definition = registry.get(name)
            for tool in definition.adl.tools:
                assert tool.tool_id in definition.signal_profiles


class TestToolIdNamespaces:
    def test_tool_ids_globally_unique(self, registry):
        seen = {}
        for name in registry.names():
            for tool in registry.get(name).adl.tools:
                assert tool.tool_id not in seen, (
                    f"tool id {tool.tool_id} reused by {name} and "
                    f"{seen.get(tool.tool_id)}"
                )
                seen[tool.tool_id] = name


class TestDressing:
    def test_two_routines_share_tools(self, registry):
        from repro.adls.dressing import dressing_routines

        adl = registry.get("dressing").adl
        a, b = dressing_routines(adl)
        assert sorted(a.step_ids) == sorted(b.step_ids)
        assert a.step_ids != b.step_ids
        assert a.terminal_step_id == b.terminal_step_id
