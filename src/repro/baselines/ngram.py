"""N-gram (frequency) next-step predictors.

A natural "why not just count?" baseline: estimate P(next step |
context) by maximum likelihood over the same training episodes the
Q-learner sees.  Order 1 conditions on the current step only; order 2
on ⟨previous, current⟩ (the Q-learner's state).  On single-routine
users both match Q-learning's predictions; the interesting contrasts
are (a) order-1 fails on routines where one step has different
successors depending on history, and (b) n-grams carry no notion of
reminder level or completion reward -- minimality must be bolted on.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Sequence, Tuple

from repro.core.adl import IDLE_STEP_ID

__all__ = ["NGramPredictor"]


class NGramPredictor:
    """Maximum-likelihood successor prediction from episode logs."""

    def __init__(self, order: int = 2) -> None:
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        self.order = order
        self._counts: Dict[Tuple[int, ...], Dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.episodes_seen = 0

    def fit(self, episodes: Sequence[Sequence[int]]) -> "NGramPredictor":
        """Count successor frequencies over ``episodes``; returns self."""
        for episode in episodes:
            steps = list(episode)
            previous = IDLE_STEP_ID
            for index in range(len(steps) - 1):
                context = self._context(previous, steps[index])
                self._counts[context][steps[index + 1]] += 1
                previous = steps[index]
            self.episodes_seen += 1
        return self

    def predict_next_tool(
        self, previous_step_id: int, current_step_id: int
    ) -> Optional[int]:
        """The most frequent successor of the context, or ``None``.

        Ties break toward the smaller StepID for determinism.
        """
        context = self._context(previous_step_id, current_step_id)
        successors = self._counts.get(context)
        if not successors:
            return None
        return min(successors, key=lambda step: (-successors[step], step))

    def _context(self, previous: int, current: int) -> Tuple[int, ...]:
        if self.order == 1:
            return (current,)
        return (previous, current)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NGramPredictor(order={self.order}, contexts={len(self._counts)})"
