"""Tests for the multi-ADL care-home deployment."""

import pytest

from repro.core.config import CoReDAConfig
from repro.core.errors import CoReDAError, UnknownADLError
from repro.core.home import CareHome, ScheduledActivity


@pytest.fixture(scope="module")
def home(registry):
    home = CareHome(
        [registry.get("tooth-brushing"), registry.get("tea-making")],
        CoReDAConfig(seed=3),
    )
    home.train_all()
    return home


class TestConstruction:
    def test_needs_at_least_one_adl(self):
        with pytest.raises(ValueError):
            CareHome([])

    def test_shared_world(self, home):
        tooth = home.system("tooth-brushing")
        tea = home.system("tea-making")
        assert tooth.sim is tea.sim is home.sim
        assert tooth.trace is tea.trace
        assert tooth.bus is not tea.bus  # no cross-talk

    def test_unknown_adl(self, home):
        with pytest.raises(UnknownADLError):
            home.system("cooking")

    def test_training_required_before_day(self, registry):
        fresh = CareHome([registry.get("tea-making")], CoReDAConfig(seed=1))
        with pytest.raises(CoReDAError):
            fresh.run_day([ScheduledActivity("tea-making")])


class TestScheduledDay:
    def test_day_runs_both_activities(self, home):
        result = home.run_day(
            [
                ScheduledActivity("tooth-brushing", start_at=home.sim.now),
                ScheduledActivity("tea-making", start_at=home.sim.now + 4000.0),
            ]
        )
        assert result.completed == 2
        assert [name for name, _ in result.outcomes] == [
            "tooth-brushing",
            "tea-making",
        ]

    def test_clock_flows_across_activities(self, home):
        start = home.sim.now
        target = start + 5000.0
        home.run_day([ScheduledActivity("tea-making", start_at=target)])
        assert home.sim.now >= target

    def test_activities_sorted_by_start(self, home):
        now = home.sim.now
        result = home.run_day(
            [
                ScheduledActivity("tea-making", start_at=now + 9000.0),
                ScheduledActivity("tooth-brushing", start_at=now),
            ]
        )
        assert [name for name, _ in result.outcomes] == [
            "tooth-brushing",
            "tea-making",
        ]


class TestReports:
    def test_one_report_per_adl(self, home):
        reports = home.caregiver_reports()
        assert [report.adl_name for report in reports] == [
            "tea-making",
            "tooth-brushing",
        ]
        assert all(report.episodes_completed >= 1 for report in reports)


class TestIsolation:
    def test_no_cross_talk_between_deployments(self, home):
        tooth_before = len(home.system("tooth-brushing").sensing.history)
        tea_before = len(home.system("tea-making").sensing.history)
        home.run_day([
            ScheduledActivity("tooth-brushing"),
            ScheduledActivity("tea-making"),
        ])
        tooth = home.system("tooth-brushing")
        tea = home.system("tea-making")
        # Each history only ever contains its own ADL's tools.
        assert all(
            tooth.adl.has_step(record.tool_id)
            for record in tooth.sensing.history.records()
        )
        assert all(
            tea.adl.has_step(record.tool_id)
            for record in tea.sensing.history.records()
        )
        assert len(tooth.sensing.history) > tooth_before
        assert len(tea.sensing.history) > tea_before
