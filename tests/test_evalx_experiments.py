"""Tests for the paper-experiment sections: structure and rendering.

Each section is read from the shared full-report run (the
``full_report`` fixture) rather than re-run at reduced sample counts;
the numbers themselves are pinned in ``tests/test_paper_numbers.py``
and ``tests/test_experiment_claims.py``.
"""

import pytest

from repro.evalx.hardware_table import table1_hardware, table2_rows, table2_sensor_map
from repro.evalx import learning_curve
from repro.evalx.learning_curve import plan_learning_curve
from repro.evalx.parallel import run_section


class TestTable1:
    def test_hardware_table_renders_paper_fields(self):
        text = table1_hardware()
        for expected in (
            "Microchip PIC18LF4620",
            "4 KB",
            "64 KB",
            "ChipCon CC1000",
            "EEPROM(16 KB)",
        ):
            assert expected in text


class TestTable2:
    def test_rows_cover_both_adls(self, registry):
        rows = table2_rows(
            [registry.get("tooth-brushing"), registry.get("tea-making")]
        )
        assert len(rows) == 8
        assert ("tea-making", "Pour hot water into kettle",
                "Pressure on electronic-pot") in rows

    def test_render(self, registry):
        text = table2_sensor_map([registry.get("tea-making")])
        assert "Acce. on tea-box" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self, full_report):
        return full_report["table3.extract"].result

    def test_eight_rows(self, result):
        assert len(result.rows) == 8

    def test_long_steps_detect_reliably(self, result):
        for step in ("Brush the teeth", "Gargle with water",
                     "Put tea-leaf into kettle", "Pour tea into tea cup"):
            assert result.row_for(step).precision >= 0.9

    def test_short_steps_are_the_weakest(self, result):
        # The paper's weakest row ("Pour hot water", 80%) must be our
        # weakest; the two short steps must both miss sometimes while
        # the long, vigorous steps stay >= 90%.
        towel = result.row_for("Dry with a towel").precision
        pour = result.row_for("Pour hot water into kettle").precision
        others = [
            row.precision
            for row in result.rows
            if row.step_name not in ("Dry with a towel",
                                     "Pour hot water into kettle")
        ]
        assert pour <= min(others)
        assert 0.5 <= pour < 1.0
        assert 0.5 <= towel < 1.0

    def test_table_renders(self, result):
        assert "Extract Precision" in result.to_table()


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self, full_report):
        return full_report["fig4.curve.tea-making"].result

    def test_all_seeds_converge_within_budget(self, result):
        assert result.convergence_rate(0.95) == 1.0
        assert result.convergence_rate(0.98) == 1.0
        assert all(i <= 120 for i in result.converged_iterations(0.98))

    def test_98_needs_at_least_as_many_iterations(self, result):
        for run in result.runs:
            assert run.convergence[0.98] >= run.convergence[0.95]

    def test_curve_reaches_high_accuracy(self, result):
        for run in result.runs:
            assert run.curve.smoothed_accuracy[-1] >= 0.95
            assert run.curve.greedy_accuracy[-1] == 1.0

    def test_render(self, result):
        assert "Criterion" in result.to_table()
        assert "*" in result.representative_plot()


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self, full_report):
        return full_report["table4.predict"].result

    def test_first_steps_untestable(self, result):
        for name in ("Put toothpaste on the brush", "Put tea-leaf into kettle"):
            assert result.row_for(name).precision is None

    def test_non_first_steps_all_perfect(self, result):
        for row in result.rows:
            if row.precision is not None:
                assert row.precision == 1.0

    def test_render_has_dashes(self, result):
        assert "| -" in result.to_table()


class TestFigure1:
    @pytest.fixture(scope="class")
    def scenario(self, full_report):
        return full_report["fig1.scenario"].result

    def test_structure(self, scenario):
        assert scenario.structure_ok()

    def test_anchor_ordering(self, scenario):
        assert (
            scenario.wrong_tool_prompt_time
            < scenario.first_praise_time
            < scenario.stall_prompt_time
            < scenario.second_praise_time
        )

    def test_methods_counts(self, scenario):
        assert scenario.wrong_tool_methods == 4
        assert scenario.stall_methods == 3

    def test_timeline_renders(self, scenario):
        text = scenario.to_table()
        assert "electronic-pot" in text


class TestBaselineComparison:
    @pytest.fixture(scope="class")
    def result(self, full_report):
        return full_report["baseline.tea-making"].result

    def test_learning_systems_perfect(self, result):
        assert result.row_for("CoReDA (TD-lambda Q)").mean_accuracy == 1.0
        assert result.row_for("trigram").mean_accuracy == 1.0

    def test_preplanned_systems_fail_personalization(self, result):
        coreda = result.row_for("CoReDA (TD-lambda Q)").mean_accuracy
        assert result.row_for("fixed sequence").mean_accuracy < coreda
        assert result.row_for("MDP planner (canonical)").mean_accuracy < coreda

    def test_render(self, result):
        assert "Pre-planned" in result.to_table()


class TestCurveCsv:
    def test_csv_shape(self, registry, monkeypatch):
        monkeypatch.setattr(learning_curve, "EPISODES", 20)
        result = run_section(
            plan_learning_curve(registry.get("tea-making").adl, seeds=(0, 1))
        )
        csv = result.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "seed,iteration,behaviour,smoothed,greedy,minimal"
        assert len(lines) == 1 + 2 * 20
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"
        assert all(0.0 <= float(x) <= 1.0 for x in first[2:])
