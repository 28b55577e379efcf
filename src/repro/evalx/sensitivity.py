"""Hyper-parameter sensitivity sweeps (learning rate α, exploration ε).

The paper notes the operator "can set the parameters (converging
condition, learning rate, etc.)" to trade convergence for continual
adaptation.  These sweeps chart that trade-off: how iterations-to-
converge and final policy quality move with α and with the ε
schedule.

Each (config, seed) cell is pure and picklable, so the sweeps run
under the deterministic parallel executor and share the trained-
policy cache with every other :class:`RoutineTrainer`-based sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from repro.core.adl import ADL
from repro.core.config import PlanningConfig
from repro.core.metrics import mean
from repro.evalx.parallel import Cell, Section
from repro.evalx.tables import format_table
from repro.planning.store import PolicyCache, train_routine_cached

__all__ = [
    "plan_alpha_sweep",
    "plan_epsilon_sweep",
]


def _sensitivity_cell(
    adl: ADL,
    config: PlanningConfig,
    seed: int,
    episodes: int,
    criterion: float,
    cache_dir: Optional[str] = None,
) -> Tuple[Optional[int], float]:
    """One seed of one config: (convergence iteration, final accuracy)."""
    cache = PolicyCache(cache_dir) if cache_dir else None
    trained = train_routine_cached(
        adl,
        list(adl.canonical_routine().step_ids),
        config,
        seed,
        episodes,
        criteria=(criterion,),
        cache=cache,
    )
    return trained.convergence[criterion], trained.curve.greedy_accuracy[-1]


def _plan_sweep(
    name: str,
    adl: ADL,
    configs: Sequence[Tuple[str, PlanningConfig]],
    seeds: Sequence[int],
    episodes: int,
    criterion: float,
    columns: Sequence[str],
    title: str,
    cache_dir: Optional[str] = None,
) -> Section:
    """A labelled-config sweep as one section of (config, seed) cells."""
    cells = [
        Cell(
            _sensitivity_cell,
            (adl, config, seed, episodes, criterion, cache_dir),
            label=f"{name}.{label}[{seed}]",
        )
        for label, config in configs
        for seed in seeds
    ]

    def merge(results: List[Tuple[Optional[int], float]]) -> str:
        rows = []
        for index, (label, _) in enumerate(configs):
            chunk = results[index * len(seeds):(index + 1) * len(seeds)]
            iterations = [it for it, _ in chunk if it is not None]
            final = [accuracy for _, accuracy in chunk]
            rows.append(
                (
                    label,
                    f"{mean(iterations):.1f}" if iterations else "-",
                    f"{len(iterations) / len(seeds):.0%}",
                    f"{mean(final):.0%}",
                )
            )
        return format_table(columns, rows, title=title)

    return Section(name, cells, merge)


def plan_alpha_sweep(
    adl: ADL,
    alphas: Sequence[float] = (0.05, 0.1, 0.2, 0.5, 1.0),
    seeds: Sequence[int] = tuple(range(8)),
    episodes: int = 120,
    criterion: float = 0.95,
    cache_dir: Optional[str] = None,
) -> Section:
    """Learning rate α vs convergence speed and final accuracy."""
    configs = [
        (f"{alpha:.2f}", replace(PlanningConfig(), learning_rate=alpha))
        for alpha in alphas
    ]
    return _plan_sweep(
        f"sensitivity.alpha.{adl.name}",
        adl,
        configs,
        seeds,
        episodes,
        criterion,
        ["alpha", "Mean iterations (95%)", "Converged", "Final accuracy"],
        f"Sensitivity: learning rate ({adl.name})",
        cache_dir=cache_dir,
    )


def plan_epsilon_sweep(
    adl: ADL,
    schedules: Sequence[Tuple[float, float]] = (
        (0.1, 0.978),
        (0.2, 0.978),
        (0.4, 0.978),
        (0.4, 1.0),
    ),
    seeds: Sequence[int] = tuple(range(8)),
    episodes: int = 120,
    criterion: float = 0.95,
    cache_dir: Optional[str] = None,
) -> Section:
    """ε schedule vs convergence: the always-adapting mode in numbers.

    The ``(0.4, 1.0)`` row is the paper's "update all the while"
    setting (no ε decay): behaviour accuracy then plateaus *below*
    the criterion -- the system keeps exploring forever, never
    "converges", yet its greedy policy is perfect.  Exactly the
    trade-off section 3.2 describes.
    """
    configs = [
        (
            f"eps0={epsilon} decay={decay}",
            replace(PlanningConfig(), epsilon=epsilon, epsilon_decay=decay),
        )
        for epsilon, decay in schedules
    ]
    return _plan_sweep(
        f"sensitivity.epsilon.{adl.name}",
        adl,
        configs,
        seeds,
        episodes,
        criterion,
        ["epsilon schedule", "Mean iterations (95%)", "Converged",
         "Final accuracy"],
        f"Sensitivity: exploration schedule ({adl.name})",
        cache_dir=cache_dir,
    )
