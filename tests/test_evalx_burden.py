"""Unit tests for the caregiver-burden study.

``BurdenRow`` arithmetic is checked directly; the study's table is
read from the shared full-report run (the ``full_report`` fixture).
"""

import pytest

from repro.evalx.burden import BurdenRow


class TestBurdenRow:
    def test_reduction_computation(self):
        row = BurdenRow(
            severity=0.5, episodes=10, completed=10, errors=8,
            caregiver_interventions=2,
        )
        assert row.errors_per_episode == 0.8
        assert row.burden_reduction == pytest.approx(0.75)

    def test_no_errors_means_no_reduction_figure(self):
        row = BurdenRow(
            severity=0.1, episodes=5, completed=5, errors=0,
            caregiver_interventions=0,
        )
        assert row.burden_reduction is None


class TestStudy:
    @pytest.fixture(scope="class")
    def result(self, full_report):
        return full_report["burden.tea-making"].result

    def test_rows_per_severity(self, result):
        assert [row.severity for row in result.rows] == [0.2, 0.5, 0.8]

    def test_all_episodes_complete_under_guidance(self, result):
        assert all(row.completed == row.episodes for row in result.rows)

    def test_severity_increases_errors(self, result):
        mild, _, severe = result.rows
        assert severe.errors >= mild.errors

    def test_render(self, result):
        table = result.to_table()
        assert "Burden reduction" in table
        assert "Caregiver-burden study" in table
