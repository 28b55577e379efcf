"""Caregiver-burden study: the paper's motivation, quantified.

    "With the assistance of ubiquitous guidance system which can
    remind elderly instead of them, caregivers' burden will be
    significantly reduced."

Without CoReDA, *every* error a resident makes (a stall, a wrong
tool) needs a caregiver to step in -- that is the pre-deployment
world the paper describes.  With CoReDA deployed, a caregiver is
needed only when guidance fails: the system gives up on a step
(caregiver alert) or the resident ends up recovering without help
after prompts went unanswered.  The study runs guided episodes across
a severity sweep and reports the fraction of error events resolved by
the system alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.adls.library import ADLDefinition
from repro.core.config import CoReDAConfig
from repro.core.system import CoReDA
from repro.evalx.parallel import Cell, Section
from repro.evalx.tables import format_table
from repro.resident.dementia import DementiaProfile

__all__ = [
    "BurdenRow",
    "BurdenResult",
    "plan_burden_study",
]


@dataclass(frozen=True)
class BurdenRow:
    """One severity level's outcome."""

    severity: float
    episodes: int
    completed: int
    errors: int
    caregiver_interventions: int

    @property
    def errors_per_episode(self) -> float:
        return self.errors / self.episodes

    @property
    def burden_reduction(self) -> Optional[float]:
        """Fraction of error events CoReDA handled without a caregiver.

        ``None`` when the resident made no errors at all (nothing to
        reduce).
        """
        if self.errors == 0:
            return None
        return 1.0 - self.caregiver_interventions / self.errors


@dataclass
class BurdenResult:
    """The full sweep plus rendering."""

    adl_name: str
    rows: List[BurdenRow]

    def to_table(self) -> str:
        cells = []
        for row in self.rows:
            reduction = row.burden_reduction
            cells.append(
                (
                    f"{row.severity:.1f}",
                    f"{row.completed}/{row.episodes}",
                    f"{row.errors_per_episode:.1f}",
                    str(row.caregiver_interventions),
                    "-" if reduction is None else f"{reduction:.0%}",
                )
            )
        return format_table(
            [
                "Severity",
                "Completed",
                "Errors/episode",
                "Caregiver interventions",
                "Burden reduction",
            ],
            cells,
            title=f"Caregiver-burden study ({self.adl_name})",
        )


def _severity_cell(
    definition: ADLDefinition,
    severity: float,
    episodes: int,
    seed: int,
) -> BurdenRow:
    """One severity level's guided episodes (pure, picklable)."""
    system = CoReDA.build(
        definition, CoReDAConfig(seed=seed + int(severity * 100))
    )
    system.train_offline()
    reliable = {
        step.step_id: max(step.handling_duration, 5.0)
        for step in definition.adl.steps
    }
    completed = 0
    for index in range(episodes):
        resident = system.create_resident(
            dementia=DementiaProfile.from_severity(severity),
            handling_overrides=reliable,
            error_use_duration=5.0,
            name=f"burden.{severity}.{index}",
        )
        outcome = system.run_episode(resident, horizon=3600.0)
        completed += int(outcome.completed)
    errors = system.trace.count("resident.error")
    self_recoveries = system.trace.count("resident.self_recovery")
    interventions = self_recoveries + system.reminding.caregiver_alerts
    return BurdenRow(
        severity=severity,
        episodes=episodes,
        completed=completed,
        errors=errors,
        caregiver_interventions=interventions,
    )


def plan_burden_study(
    definition: ADLDefinition,
    severities: Sequence[float] = (0.2, 0.5, 0.8),
    episodes: int = 10,
    seed: int = 0,
) -> Section:
    """The severity sweep as a section of one cell per severity."""
    cells = [
        Cell(
            _severity_cell,
            (definition, severity, episodes, seed),
            label=f"burden.{severity}",
        )
        for severity in severities
    ]

    def merge(rows: List[BurdenRow]) -> BurdenResult:
        return BurdenResult(adl_name=definition.adl.name, rows=list(rows))

    return Section(f"burden.{definition.adl.name}", cells, merge)
