"""Figure 4: the TD(λ) Q-learning learning curve.

The paper trains on 120 samples per ADL and reads convergence off the
curve at the 95% and 98% criteria (tooth-brushing: 49 / 91
iterations; tea-making: 56 / 98).  A single run's numbers are
seed-dependent (the behaviour policy explores stochastically), so the
harness reports the per-seed numbers *and* the mean over a seed set
-- the claims that must hold are the shape claims:

* both criteria converge well within the 120-sample budget;
* the 98% criterion needs substantially more iterations than 95%;
* the curve rises monotonically (after smoothing) toward 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.adl import ADL, Routine
from repro.core.config import PlanningConfig
from repro.core.metrics import mean, sample_sd
from repro.evalx.parallel import Cell, Section
from repro.evalx.tables import ascii_curve, format_table
from repro.planning.store import PolicyCache, train_routine_cached
from repro.planning.trainer import LearningCurve
from repro.sim.random import derive_seed

__all__ = [
    "CurveRun",
    "LearningCurveResult",
    "plan_learning_curve",
]


@dataclass(frozen=True)
class CurveRun:
    """One seed's training run."""

    seed: int
    convergence: Dict[float, Optional[int]]
    curve: LearningCurve


@dataclass
class LearningCurveResult:
    """All runs for one ADL plus summary rendering."""

    adl_name: str
    criteria: Sequence[float]
    runs: List[CurveRun]

    def converged_iterations(self, criterion: float) -> List[int]:
        """Per-seed convergence iterations (converged runs only)."""
        return [
            run.convergence[criterion]
            for run in self.runs
            if run.convergence.get(criterion) is not None
        ]

    def convergence_rate(self, criterion: float) -> float:
        """Fraction of seeds that converged at ``criterion``."""
        return len(self.converged_iterations(criterion)) / len(self.runs)

    def summary_rows(self) -> List[List[str]]:
        rows = []
        for criterion in self.criteria:
            iterations = self.converged_iterations(criterion)
            if iterations:
                rows.append(
                    [
                        self.adl_name,
                        f"{criterion:.0%}",
                        f"{mean(iterations):.1f}",
                        f"{sample_sd(iterations):.1f}",
                        f"{min(iterations)}-{max(iterations)}",
                        f"{self.convergence_rate(criterion):.0%}",
                    ]
                )
            else:
                rows.append(
                    [self.adl_name, f"{criterion:.0%}", "-", "-", "-", "0%"]
                )
        return rows

    def to_table(self) -> str:
        """Render the convergence summary (Figure 4's readout)."""
        return format_table(
            ["ADL", "Criterion", "Mean iter", "SD", "Range", "Converged"],
            self.summary_rows(),
            title="Figure 4. Learning curve convergence",
        )

    def representative_plot(self) -> str:
        """ASCII plot of the first seed's smoothed curve."""
        return ascii_curve(
            self.runs[0].curve.smoothed_accuracy,
            title=f"Figure 4. Learning curve ({self.adl_name}, seed "
            f"{self.runs[0].seed}, smoothed behaviour accuracy)",
        )

    def to_csv(self) -> str:
        """Per-iteration series as CSV (for external plotting).

        Columns: seed, iteration (1-based), behaviour accuracy,
        smoothed accuracy, greedy accuracy, minimal fraction.
        """
        lines = ["seed,iteration,behaviour,smoothed,greedy,minimal"]
        for run in self.runs:
            curve = run.curve
            for index in range(len(curve.behaviour_accuracy)):
                lines.append(
                    f"{run.seed},{index + 1},"
                    f"{curve.behaviour_accuracy[index]:.6f},"
                    f"{curve.smoothed_accuracy[index]:.6f},"
                    f"{curve.greedy_accuracy[index]:.6f},"
                    f"{curve.minimal_fraction[index]:.6f}"
                )
        return "\n".join(lines) + "\n"


def _curve_cell(
    adl: ADL,
    routine_ids: Sequence[int],
    seed: int,
    episodes: int,
    criteria: Sequence[float],
    config: PlanningConfig,
    cache_dir: Optional[str] = None,
) -> CurveRun:
    """One seed's training run -- pure, picklable, cacheable."""
    # Derive the stream from (seed, ADL name): two ADLs with the
    # same chain length must not produce bit-identical curves.
    rng_seed = derive_seed(seed, f"curve.{adl.name}")
    cache = PolicyCache(cache_dir) if cache_dir else None
    trained = train_routine_cached(
        adl,
        routine_ids,
        config,
        rng_seed,
        episodes,
        criteria=tuple(criteria),
        cache=cache,
    )
    return CurveRun(
        seed=seed, convergence=trained.convergence, curve=trained.curve
    )


def plan_learning_curve(
    adl: ADL,
    routine: Optional[Routine] = None,
    episodes: int = 120,
    seeds: Sequence[int] = tuple(range(10)),
    criteria: Sequence[float] = (0.95, 0.98),
    config: Optional[PlanningConfig] = None,
    cache_dir: Optional[str] = None,
) -> Section:
    """Figure 4 for one ADL as a section of per-seed cells."""
    if routine is None:
        routine = adl.canonical_routine()
    config = config if config is not None else PlanningConfig()
    criteria = tuple(criteria)
    cells = [
        Cell(
            _curve_cell,
            (adl, list(routine.step_ids), seed, episodes, criteria, config,
             cache_dir),
            label=f"curve.{adl.name}[{seed}]",
        )
        for seed in seeds
    ]

    def merge(runs: List[CurveRun]) -> LearningCurveResult:
        return LearningCurveResult(
            adl_name=adl.name, criteria=criteria, runs=list(runs)
        )

    return Section(f"fig4.curve.{adl.name}", cells, merge)
