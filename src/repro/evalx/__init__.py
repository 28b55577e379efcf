"""The evaluation harness: every paper table and figure, regenerable.

One module per artifact:

========================  =========================================
``hardware_table``        Table 1 (PAVENET) and Table 2 (sensor map)
``extract_precision``     Table 3 (extract precision of ADL step)
``learning_curve``        Figure 4 (TD(λ) learning curve)
``predict_precision``     Table 4 (predict precision of ADL step)
``scenario``              Figure 1 (the typical tea-making scenario)
``baseline_compare``      personalization vs pre-planned baselines
``ablations``             λ / reward / detector / Dyna / radio / SARSA
``parallel``              deterministic cell fan-out (``--jobs N``)
``runner``                run everything, write the report
========================  =========================================
"""

from repro.evalx.baseline_compare import BaselineComparisonResult, BaselineRow
from repro.evalx.burden import BurdenResult, BurdenRow
from repro.evalx.extract_precision import ExtractPrecisionResult, StepPrecision
from repro.evalx.hardware_table import table1_hardware, table2_sensor_map
from repro.evalx.learning_curve import CurveRun, LearningCurveResult
from repro.evalx.parallel import (
    Cell,
    Section,
    cell_seed,
    run_cells,
    run_section,
    run_sections,
)
from repro.evalx.predict_precision import PredictPrecisionResult, PredictRow
from repro.evalx.runner import run_all, write_report
from repro.evalx.scenario import ScenarioResult, TimelineEvent, run_tea_scenario
from repro.evalx.tables import ascii_curve, format_table
from repro.evalx.timeline import render_timeline, timeline_rows

__all__ = [
    "BaselineComparisonResult",
    "BaselineRow",
    "BurdenResult",
    "BurdenRow",
    "Cell",
    "CurveRun",
    "ExtractPrecisionResult",
    "LearningCurveResult",
    "PredictPrecisionResult",
    "PredictRow",
    "ScenarioResult",
    "Section",
    "StepPrecision",
    "TimelineEvent",
    "ascii_curve",
    "cell_seed",
    "format_table",
    "run_all",
    "run_cells",
    "run_section",
    "run_sections",
    "write_report",
    "run_tea_scenario",
    "render_timeline",
    "timeline_rows",
    "table1_hardware",
    "table2_sensor_map",
]
