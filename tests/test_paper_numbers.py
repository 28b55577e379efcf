"""The paper's evaluation, pinned by what its numbers mean.

``tests/test_golden.py`` pins the bytes of the report; this module
pins the claims those bytes carry, at the paper's sample sizes:

* the shape of Tables 3-4 and Figures 1 and 4 (which steps are
  weakest, that every seed converges, which prompts use how many
  methods), as the paper states them;
* the exact seed-0 cells that EXPERIMENTS.md quotes.

A refactor that moves both the fast path and its oracle together
fails here.  A pinned cell changes only by hand, together with
EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.core.metrics import mean
from repro.evalx.extract_precision import plan_extract_precision
from repro.evalx.learning_curve import plan_learning_curve
from repro.evalx.parallel import run_section
from repro.evalx.predict_precision import plan_predict_precision
from repro.evalx.scenario import run_tea_scenario

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


@pytest.fixture(scope="module")
def paper_adls(registry):
    """The two ADLs the paper evaluates, in Table 2 order."""
    return [registry.get("tooth-brushing"), registry.get("tea-making")]


@pytest.fixture(scope="module")
def fig4(paper_adls):
    return [
        run_section(
            plan_learning_curve(
                definition.adl, episodes=120, seeds=tuple(range(10))
            )
        )
        for definition in paper_adls
    ]


@pytest.fixture(scope="module")
def scenario():
    return run_tea_scenario()


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

    def test_seed0_cells(self, paper_adls):
        result = run_section(
            plan_extract_precision(paper_adls, samples_per_step=40, seed=0)
        )
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


class TestTable4PredictPrecision:
    def test_every_testable_step_is_exact(self, paper_adls):
        # Paper: 100% on every step but the untestable first one.
        result = run_section(
            plan_predict_precision(paper_adls, samples_per_adl=30)
        )
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
