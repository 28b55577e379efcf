"""Multi-routine planning (paper future-work item 1).

    "for some ADLs, such as dressing, one user may have multiple
    routines to complete it.  Therefore, the multi-routine are
    necessary for even only one user."

Approach: cluster the user's logged episodes by their exact step
sequence (dementia-care routines are short and highly stereotyped, so
exact clustering with a support threshold is both simple and robust),
train one Q-table per routine cluster, and at guidance time maintain a
posterior over routines given the observed prefix -- predictions come
from the maximum-a-posteriori routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adl import ADL, Routine
from repro.core.config import PlanningConfig
from repro.core.errors import RoutineError
from repro.planning.action import PromptAction
from repro.planning.predictor import NextStepPredictor
from repro.planning.state import PlanningState
from repro.planning.trainer import RoutineTrainer, TrainingResult
from repro.sim.random import seeded_generator

__all__ = ["RoutineCluster", "MultiRoutinePlanner"]

#: Likelihood assigned to a prefix that contradicts a routine: small
#: but non-zero so the posterior never degenerates on sensing noise.
_CONTRADICTION_LIKELIHOOD = 1e-6


@dataclass
class RoutineCluster:
    """One discovered routine with its episode support."""

    routine: Routine
    support: int
    training: Optional[TrainingResult] = None
    predictor: Optional[NextStepPredictor] = None


class MultiRoutinePlanner:
    """Per-routine Q-learning with Bayesian routine identification."""

    def __init__(
        self,
        adl: ADL,
        config: Optional[PlanningConfig] = None,
        rng: Optional[np.random.Generator] = None,
        min_support_fraction: float = 0.1,
    ) -> None:
        if not 0.0 <= min_support_fraction < 1.0:
            raise ValueError("min_support_fraction must be in [0, 1)")
        self.adl = adl
        self.config = config if config is not None else PlanningConfig()
        self._rng = rng if rng is not None else seeded_generator(0)
        self.min_support_fraction = min_support_fraction
        self.clusters: List[RoutineCluster] = []

    # ------------------------------------------------------------------
    # training

    def train(
        self,
        episodes: Sequence[Sequence[int]],
        criteria: Sequence[float] = (0.95,),
    ) -> List[RoutineCluster]:
        """Cluster ``episodes`` and train one policy per routine.

        Clusters supported by fewer than ``min_support_fraction`` of
        the episodes are treated as noise and dropped.  Raises
        :class:`RoutineError` if nothing survives.
        """
        if not episodes:
            raise ValueError("need at least one training episode")
        counts: Dict[Tuple[int, ...], int] = {}
        for episode in episodes:
            key = tuple(episode)
            counts[key] = counts.get(key, 0) + 1
        cutoff = self.min_support_fraction * len(episodes)
        surviving = {k: c for k, c in counts.items() if c >= cutoff}
        if not surviving:
            raise RoutineError(
                "no routine cluster met the support threshold "
                f"({self.min_support_fraction:.0%} of {len(episodes)} episodes)"
            )
        self.clusters = []
        for sequence, support in sorted(
            surviving.items(), key=lambda item: (-item[1], item[0])
        ):
            routine = Routine(self.adl, sequence)
            trainer = RoutineTrainer(self.adl, self.config, rng=self._rng)
            training = trainer.train(
                [list(sequence)] * support, routine=routine, criteria=criteria
            )
            predictor = NextStepPredictor.from_training(
                training, criterion=criteria[0], require_converged=False
            )
            self.clusters.append(
                RoutineCluster(
                    routine=routine,
                    support=support,
                    training=training,
                    predictor=predictor,
                )
            )
        return self.clusters

    # ------------------------------------------------------------------
    # identification and prediction

    def posterior(self, observed_prefix: Sequence[int]) -> Dict[Routine, float]:
        """P(routine | observed step prefix).

        Prior ∝ episode support; likelihood 1 for a consistent prefix
        and a vanishing constant for a contradicting one.
        """
        if not self.clusters:
            raise RoutineError("planner has not been trained")
        prefix = tuple(observed_prefix)
        weights: Dict[Routine, float] = {}
        for cluster in self.clusters:
            prior = cluster.support
            consistent = cluster.routine.step_ids[: len(prefix)] == prefix
            likelihood = 1.0 if consistent else _CONTRADICTION_LIKELIHOOD
            weights[cluster.routine] = prior * likelihood
        total = sum(weights.values())
        return {routine: weight / total for routine, weight in weights.items()}

    def identify(self, observed_prefix: Sequence[int]) -> Routine:
        """The maximum-a-posteriori routine for ``observed_prefix``."""
        posterior = self.posterior(observed_prefix)
        return max(
            sorted(posterior, key=lambda r: r.step_ids),
            key=lambda r: posterior[r],
        )

    def predict(self, observed_prefix: Sequence[int]) -> PromptAction:
        """The prompt after ``observed_prefix`` under the MAP routine.

        The state is ⟨previous, current⟩ taken from the prefix tail
        (idle-previous for a single-step prefix).
        """
        prefix = list(observed_prefix)
        if not prefix:
            raise RoutineError("cannot predict from an empty prefix")
        routine = self.identify(prefix)
        cluster = next(c for c in self.clusters if c.routine == routine)
        previous = prefix[-2] if len(prefix) >= 2 else 0
        state = PlanningState(previous, prefix[-1])
        assert cluster.predictor is not None
        return cluster.predictor.predict(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiRoutinePlanner({self.adl.name!r}, "
            f"clusters={len(self.clusters)})"
        )
