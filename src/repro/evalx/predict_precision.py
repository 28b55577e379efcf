"""Table 4: predict precision of ADL step.

After training converges, the paper probes both reminder-trigger
situations -- (1) the user does not use the expected tool, (2) the
user incorrectly uses another tool -- with 30 test samples per ADL,
the two situations equally examined, and reports per-step precision
(100% everywhere except the first step, which has no preceding state
to predict from).

The probes here run through the deployed online system: step events
are injected at the sensing layer (Table 4 measures *prediction*, so
the sensing noise already quantified by Table 3 is bypassed), the
planning subsystem's stall timers and wrong-tool logic fire for real,
and a trial counts as correct when the first reminder of the expected
trigger kind prompts the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.adls.library import ADLDefinition
from repro.core.config import CoReDAConfig
from repro.core.events import TriggerReason
from repro.core.metrics import proportion
from repro.core.system import CoReDA
from repro.evalx.parallel import Cell, Section
from repro.evalx.tables import format_table

__all__ = [
    "PredictRow",
    "PredictPrecisionResult",
    "plan_predict_precision",
]

#: Spacing between injected step events, seconds (well under any
#: stall timeout).
_STEP_SPACING = 3.0


@dataclass(frozen=True)
class PredictRow:
    """One row of Table 4."""

    adl_name: str
    step_name: str
    correct: Optional[int]
    trials: Optional[int]

    @property
    def precision(self) -> Optional[float]:
        """Precision, or ``None`` for the untestable first step."""
        if self.correct is None or self.trials is None:
            return None
        return proportion(self.correct, self.trials)


@dataclass
class PredictPrecisionResult:
    """All rows plus rendering."""

    rows: List[PredictRow]

    def row_for(self, step_name: str) -> PredictRow:
        """Look a row up by step name."""
        for row in self.rows:
            if row.step_name == step_name:
                return row
        raise KeyError(step_name)

    def to_table(self) -> str:
        """Render in the paper's Table 4 layout."""
        cells = []
        for row in self.rows:
            if row.precision is None:
                cells.append((row.adl_name, row.step_name, "-", "-"))
            else:
                cells.append(
                    (
                        row.adl_name,
                        row.step_name,
                        f"{row.precision:.0%}",
                        f"{row.correct}/{row.trials}",
                    )
                )
        return format_table(
            ["ADL", "ADL Step", "Predict Precision", "Samples"],
            cells,
            title="Table 4. Predict Precision of ADL Step",
        )


def plan_predict_precision(
    definitions: Sequence[ADLDefinition],
    samples_per_adl: int = 30,
    config: Optional[CoReDAConfig] = None,
    training_episodes: int = 120,
) -> Section:
    """Table 4 as a section of one cell per ADL.

    The probes use a fixed stall timeout and a long idle window: the
    injected step stream is paced artificially (3 s between steps, a
    held stall per trial), so letting the statistical-timeout rule
    learn dwell times from the probe traffic itself would corrupt the
    timers between trials.  Timing behaviour is Figure 1's subject;
    Table 4 isolates *prediction*.
    """
    config = config if config is not None else CoReDAConfig()
    config = replace(
        config,
        reminding=replace(
            config.reminding, statistical_timeout=False, stall_timeout=25.0
        ),
        sensing=replace(config.sensing, idle_timeout=600.0),
    )
    cells = [
        Cell(
            _evaluate_adl,
            (definition, samples_per_adl, config, training_episodes),
            label=f"predict.{definition.adl.name}",
        )
        for definition in definitions
    ]

    def merge(per_adl: List[List[PredictRow]]) -> PredictPrecisionResult:
        rows: List[PredictRow] = []
        for adl_rows in per_adl:
            rows.extend(adl_rows)
        return PredictPrecisionResult(rows=rows)

    return Section("table4.predict", cells, merge)


def _evaluate_adl(
    definition: ADLDefinition,
    samples_per_adl: int,
    config: CoReDAConfig,
    training_episodes: int,
) -> List[PredictRow]:
    system = CoReDA.build(definition, config)
    routine = definition.adl.canonical_routine()
    system.train_offline(routine=routine, episodes=training_episodes)
    steps = routine.step_ids
    testable = len(steps) - 1
    per_step = max(samples_per_adl // max(testable, 1), 2)
    rows: List[PredictRow] = [
        PredictRow(
            adl_name=definition.adl.name,
            step_name=definition.adl.step(steps[0]).name,
            correct=None,
            trials=None,
        )
    ]
    wrong_rng = system.streams.get("predict_precision.wrong_tool")
    for position in range(1, len(steps)):
        correct = 0
        trials = 0
        for trial in range(per_step):
            stall = trial % 2 == 0
            if stall:
                hit = _stall_trial(system, steps, position)
            else:
                hit = _wrong_tool_trial(system, steps, position, wrong_rng)
            correct += int(hit)
            trials += 1
        rows.append(
            PredictRow(
                adl_name=definition.adl.name,
                step_name=definition.adl.step(steps[position]).name,
                correct=correct,
                trials=trials,
            )
        )
    return rows


def _inject_prefix(system: CoReDA, steps: Sequence[int], position: int) -> None:
    for step_id in steps[:position]:
        system.sensing.inject_usage(step_id)
        system.sim.run_until(system.sim.now + _STEP_SPACING)


def _finish_episode(system: CoReDA, steps: Sequence[int], position: int) -> None:
    for step_id in steps[position:]:
        system.sensing.inject_usage(step_id)
        system.sim.run_until(system.sim.now + _STEP_SPACING)
    system.planning.reset_episode()
    system.sensing.reset_episode()
    system.sim.run_until(system.sim.now + 2.0)


def _first_new_reminder(system: CoReDA, since: int, reason: TriggerReason):
    for reminder in system.reminding.reminders[since:]:
        if reminder.reason is reason:
            return reminder
    return None


def _stall_trial(system: CoReDA, steps: Sequence[int], position: int) -> bool:
    """Situation 1: the user stops before step ``position``."""
    before = len(system.reminding.reminders)
    _inject_prefix(system, steps, position)
    timeout = system.stall_timeout_for(steps[position - 1])
    system.sim.run_until(system.sim.now + timeout + 2.0)
    reminder = _first_new_reminder(system, before, TriggerReason.STALL)
    hit = reminder is not None and reminder.tool_id == steps[position]
    _finish_episode(system, steps, position)
    return hit


def _wrong_tool_trial(
    system: CoReDA, steps: Sequence[int], position: int, rng
) -> bool:
    """Situation 2: the user grabs a wrong tool before ``position``."""
    before = len(system.reminding.reminders)
    _inject_prefix(system, steps, position)
    candidates = [
        tool.tool_id
        for tool in system.adl.tools
        if tool.tool_id not in (steps[position], steps[position - 1])
    ]
    wrong = int(candidates[int(rng.integers(len(candidates)))])
    system.sensing.inject_usage(wrong)
    system.sim.run_until(system.sim.now + 1.0)
    reminder = _first_new_reminder(system, before, TriggerReason.WRONG_TOOL)
    hit = (
        reminder is not None
        and reminder.tool_id == steps[position]
        and reminder.wrong_tool_id == wrong
    )
    _finish_episode(system, steps, position)
    return hit
