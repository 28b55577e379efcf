"""Baseline comparison: personalization is the point.

The paper's critique of prior guidance systems is that they "are
based solely on pre-planned routines of ADLs, without considering
different users' preferences".  This experiment makes that critique
quantitative: a cohort of users with *personalized* routines is
evaluated under

* **CoReDA** -- TD(λ) Q-learning trained on each user's own episodes;
* **bigram / trigram counters** -- frequency baselines trained on the
  same episodes (no reward signal, no level learning);
* **fixed sequence** -- the canonical pre-planned routine;
* **Boger-style MDP planner** -- value iteration over the canonical
  (pre-planned) task model.

Expected shape: the learning systems score ~100% on every user; the
pre-planned systems score 100% only on users whose personal routine
happens to equal the canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.fixed_sequence import FixedSequenceReminder
from repro.baselines.mdp_planner import MdpPlannerBaseline
from repro.baselines.ngram import NGramPredictor
from repro.core.adl import ADL, Routine
from repro.core.config import PlanningConfig
from repro.core.metrics import mean
from repro.evalx.parallel import Cell, Section
from repro.evalx.tables import format_table
from repro.planning.state import episode_states
from repro.planning.store import PolicyCache, train_routine_cached
from repro.resident.routines import personalized_routine, training_episodes
from repro.sim.random import seeded_generator

__all__ = [
    "BaselineRow",
    "BaselineComparisonResult",
    "plan_baseline_comparison",
]

#: Report row order (and the dict keys each user cell returns).
_SYSTEMS = (
    "CoReDA (TD-lambda Q)",
    "bigram",
    "trigram",
    "fixed sequence",
    "MDP planner (canonical)",
)


@dataclass(frozen=True)
class BaselineRow:
    """One system's cohort-level result."""

    system: str
    mean_accuracy: float
    perfect_users: int
    total_users: int
    needs_model_upfront: bool


@dataclass
class BaselineComparisonResult:
    """All systems' results plus rendering."""

    adl_name: str
    rows: List[BaselineRow]

    def row_for(self, system: str) -> BaselineRow:
        for row in self.rows:
            if row.system == system:
                return row
        raise KeyError(system)

    def to_table(self) -> str:
        cells = [
            (
                row.system,
                f"{row.mean_accuracy:.1%}",
                f"{row.perfect_users}/{row.total_users}",
                "yes" if row.needs_model_upfront else "no",
            )
            for row in self.rows
        ]
        return format_table(
            ["System", "Mean accuracy", "Perfect users", "Pre-planned model"],
            cells,
            title=f"Baseline comparison on personalized routines ({self.adl_name})",
        )


def _routine_accuracy(predict, routine: Routine) -> float:
    """Fraction of routine states where ``predict`` names the next tool."""
    states = episode_states(list(routine.step_ids))
    total = len(states) - 1
    correct = 0
    for index in range(total):
        state = states[index]
        predicted = predict(state.previous, state.current)
        if predicted == states[index + 1].current:
            correct += 1
    return correct / total


def _user_cell(
    adl: ADL,
    routine_ids: Sequence[int],
    config: PlanningConfig,
    trainer_seed: int,
    episodes: int,
    cache_dir: Optional[str] = None,
) -> Dict[str, float]:
    """One user's accuracies under every system (pure, picklable)."""
    routine = Routine(adl, list(routine_ids))
    log = training_episodes(routine, episodes)
    cache = PolicyCache(cache_dir) if cache_dir else None
    trained = train_routine_cached(
        adl,
        list(routine.step_ids),
        config,
        trainer_seed,
        episodes,
        cache=cache,
    )
    predictor = trained.predictor(adl)
    bigram = NGramPredictor(order=1).fit(log)
    trigram = NGramPredictor(order=2).fit(log)
    canonical_fixed = FixedSequenceReminder(adl)
    canonical_mdp = MdpPlannerBaseline(adl.canonical_routine())
    return {
        "CoReDA (TD-lambda Q)": _routine_accuracy(
            predictor.predict_next_tool, routine
        ),
        "bigram": _routine_accuracy(bigram.predict_next_tool, routine),
        "trigram": _routine_accuracy(trigram.predict_next_tool, routine),
        "fixed sequence": _routine_accuracy(
            canonical_fixed.predict_next_tool, routine
        ),
        "MDP planner (canonical)": _routine_accuracy(
            canonical_mdp.predict_next_tool, routine
        ),
    }


def plan_baseline_comparison(
    adl: ADL,
    n_users: int = 20,
    episodes: int = 120,
    seed: int = 0,
    config: Optional[PlanningConfig] = None,
    shuffle_probability: float = 0.8,
    cache_dir: Optional[str] = None,
) -> Section:
    """The cohort comparison as a section of one cell per user.

    The cohort's personalized routines are drawn here, at plan time,
    from one sequential generator (so the cohort is identical to the
    serial harness); each cell then trains and scores one user
    independently.
    """
    config = config if config is not None else PlanningConfig()
    rng = seeded_generator(seed)
    routines = [
        personalized_routine(adl, rng, shuffle_probability=shuffle_probability)
        for _ in range(n_users)
    ]
    cells = [
        Cell(
            _user_cell,
            (adl, list(routine.step_ids), config, seed * 1000 + user_index,
             episodes, cache_dir),
            label=f"baseline.user[{user_index}]",
        )
        for user_index, routine in enumerate(routines)
    ]

    def merge(per_user: List[Dict[str, float]]) -> BaselineComparisonResult:
        pre_planned = {"fixed sequence", "MDP planner (canonical)"}
        rows = []
        for system in _SYSTEMS:
            values = [user[system] for user in per_user]
            rows.append(
                BaselineRow(
                    system=system,
                    mean_accuracy=mean(values),
                    perfect_users=sum(1 for v in values if v >= 0.999),
                    total_users=n_users,
                    needs_model_upfront=system in pre_planned,
                )
            )
        return BaselineComparisonResult(adl_name=adl.name, rows=rows)

    return Section(f"baseline.{adl.name}", cells, merge)
