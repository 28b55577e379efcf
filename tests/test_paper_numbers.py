"""The paper's evaluation, pinned by what its numbers mean.

``tests/test_golden.py`` pins the bytes of the report; this module
pins the claims those bytes carry for the paper's own Tables 1-4 and
Figures 1 and 4, read from the shared full-report run (the
``full_report`` fixture, at the report's sample sizes):

* the shape of each table and figure (which steps are weakest, that
  every seed converges, which prompts use how many methods), as the
  paper states them;
* the exact seed-0 cells that EXPERIMENTS.md quotes.

``tests/test_experiment_claims.py`` does the same for every other
section of EXPERIMENTS.md.  A refactor that moves both the fast path
and its oracle together fails here.  A pinned cell changes only by
hand, together with EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.core.metrics import mean
from repro.evalx.extract_precision import plan_extract_precision
from repro.evalx.hardware_table import table2_rows
from repro.evalx.parallel import run_section
from repro.sensors.hardware import PAVENET_SPEC

SHORT_STEPS = ("Pour hot water into kettle", "Dry with a towel")
FIRST_STEPS = ("Put toothpaste on the brush", "Put tea-leaf into kettle")

#: Table 3 at seed 0, 40 samples per step: (step, detections).
TABLE3_SEED0 = [
    ("Put toothpaste on the brush", 36),
    ("Brush the teeth", 40),
    ("Gargle with water", 40),
    ("Dry with a towel", 34),
    ("Put tea-leaf into kettle", 40),
    ("Pour hot water into kettle", 33),
    ("Pour tea into tea cup", 40),
    ("Drink a cup of tea", 36),
]

#: Figure 4 over seeds 0-9: (ADL, criterion) -> (mean, min, max).
FIG4_SEEDS_0_9 = {
    ("tooth-brushing", 0.95): ("38.9", 23, 59),
    ("tooth-brushing", 0.98): ("51.2", 26, 84),
    ("tea-making", 0.95): ("32.1", 18, 45),
    ("tea-making", 0.98): ("51.0", 27, 86),
}

#: Figure 4: the largest and smallest per-seed ratio of iterations to
#: 98% over iterations to 95%, over both ADLs.
FIG4_SINGLE_RUN_RATIOS = ("1.0", "3.4")


@pytest.fixture(scope="module")
def paper_adls(registry):
    """The two ADLs the paper evaluates, in Table 2 order."""
    return [registry.get("tooth-brushing"), registry.get("tea-making")]


@pytest.fixture(scope="module")
def fig4(full_report):
    return [
        full_report[f"fig4.curve.{adl}"].result
        for adl in ("tooth-brushing", "tea-making")
    ]


@pytest.fixture(scope="module")
def scenario(full_report):
    return full_report["fig1.scenario"].result


class TestTable1Hardware:
    def test_table1_hardware(self, full_report):
        table = full_report["table1.hardware"].result
        assert "Microchip PIC18LF4620" in table
        assert "ChipCon CC1000" in table
        assert PAVENET_SPEC.eeprom_bytes == 16 * 1024
        assert PAVENET_SPEC.led_count == 4


class TestTable2SensorMap:
    def test_table2_sensor_map(self, paper_adls):
        rows = table2_rows(paper_adls)
        # Eight steps over the two evaluation ADLs, pressure only on the
        # electronic-pot -- exactly the paper's mapping.
        assert len(rows) == 8
        pressure_rows = [row for row in rows if row[2].startswith("Pressure")]
        assert pressure_rows == [
            ("tea-making", "Pour hot water into kettle",
             "Pressure on electronic-pot")
        ]


class TestTable3ExtractPrecision:
    def test_short_steps_are_weakest(self, paper_adls):
        # Paper: 80-100% per step, the two short steps lowest.
        result = run_section(
            plan_extract_precision(paper_adls, samples_per_step=40, seed=3)
        )
        assert len(result.rows) == 8
        assert sum(row.trials for row in result.rows) == 320
        pour = result.row_for("Pour hot water into kettle").precision
        towel = result.row_for("Dry with a towel").precision
        long_steps = [
            row.precision
            for row in result.rows
            if row.step_name not in SHORT_STEPS
        ]
        assert all(precision >= 0.9 for precision in long_steps)
        assert pour <= min(long_steps)
        assert 0.6 <= pour < 1.0
        assert 0.6 <= towel < 1.0

    def test_seed0_cells(self, full_report):
        result = full_report["table3.extract"].result
        assert [
            (row.step_name, row.detections, row.trials) for row in result.rows
        ] == [(step, hits, 40) for step, hits in TABLE3_SEED0]


class TestFig4LearningCurve:
    def test_every_seed_converges_at_both_criteria(self, fig4):
        # Paper: convergence at 95% then 98% within 120 samples.
        for result in fig4:
            assert result.convergence_rate(0.95) == 1.0
            assert result.convergence_rate(0.98) == 1.0
            mean_95 = mean(result.converged_iterations(0.95))
            mean_98 = mean(result.converged_iterations(0.98))
            assert 10 <= mean_95 <= 80
            assert mean_98 > mean_95
            assert max(result.converged_iterations(0.98)) <= 120
            for run in result.runs:
                assert run.curve.greedy_accuracy[-1] == 1.0
                # Care principle 2: the converged policy prompts minimally.
                assert run.curve.minimal_fraction[-1] == 1.0

    def test_means_and_ranges(self, fig4):
        measured = {}
        for result in fig4:
            for criterion in (0.95, 0.98):
                iterations = result.converged_iterations(criterion)
                measured[(result.adl_name, criterion)] = (
                    f"{mean(iterations):.1f}",
                    min(iterations),
                    max(iterations),
                )
        assert measured == FIG4_SEEDS_0_9

    def test_single_run_ratios(self, fig4):
        ratios = [
            run.convergence[0.98] / run.convergence[0.95]
            for result in fig4
            for run in result.runs
        ]
        assert (f"{min(ratios):.1f}", f"{max(ratios):.1f}") == (
            FIG4_SINGLE_RUN_RATIOS
        )


class TestTable4PredictPrecision:
    def test_every_testable_step_is_exact(self, full_report):
        # Paper: 100% on every step but the untestable first one.
        result = full_report["table4.predict"].result
        assert len(result.rows) == 8
        for row in result.rows:
            if row.step_name in FIRST_STEPS:
                assert row.precision is None
            else:
                assert row.precision == 1.0
        assert sum(row.trials or 0 for row in result.rows) == 60


class TestFig1Scenario:
    def test_structure(self, scenario):
        assert scenario.structure_ok()
        assert scenario.completed
        # Wrong tool: text, picture, green LED on the target and red
        # LED on the misused tool.  Stall: no tool is being misused.
        assert scenario.wrong_tool_methods == 4
        assert scenario.stall_methods == 3
        # The paper's "does not do anything for 30s".
        assert scenario.stall_prompt_time > scenario.first_praise_time + 30.0

    def test_anchor_times(self, scenario):
        completion = [
            event.time
            for event in scenario.timeline
            if event.kind == "completed"
        ]
        assert [
            f"{t:.1f}"
            for t in (
                scenario.wrong_tool_prompt_time,
                scenario.first_praise_time,
                scenario.stall_prompt_time,
                *completion,
            )
        ] == ["10.9", "19.8", "59.2", "64.0"]
