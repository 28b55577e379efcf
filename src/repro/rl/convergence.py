"""Convergence detection (paper section 3.2).

The paper reports iterations-to-convergence for "converging
conditions" of 95% and 98%.  We define convergence the way a
deployment must: the measured policy accuracy has reached the
criterion and *stayed* there for ``patience`` consecutive iterations
(a single lucky iteration must not count).  The reported convergence
iteration is the first iteration of that stable run, matching the
paper's "converge after N iterations" reading.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["ConvergenceDetector", "convergence_iteration"]


class ConvergenceDetector:
    """Streaming detector over a sequence of accuracy measurements."""

    def __init__(self, criterion: float = 0.95, patience: int = 3) -> None:
        if not 0.0 < criterion <= 1.0:
            raise ValueError("criterion must be in (0, 1]")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.criterion = criterion
        self.patience = patience
        self.history: List[float] = []
        self._streak = 0
        self._converged_at: Optional[int] = None

    def update(self, accuracy: float) -> bool:
        """Feed one accuracy measurement; returns the converged flag."""
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        self.history.append(accuracy)
        if self._converged_at is not None:
            return True
        if accuracy >= self.criterion:
            self._streak += 1
            if self._streak >= self.patience:
                # First iteration of the stable streak, 1-based.
                self._converged_at = len(self.history) - self.patience + 1
                return True
        else:
            self._streak = 0
        return False

    @property
    def converged(self) -> bool:
        """True once the criterion has held for ``patience`` iterations."""
        return self._converged_at is not None

    @property
    def converged_at(self) -> Optional[int]:
        """1-based iteration where the stable run began, or None."""
        return self._converged_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConvergenceDetector(criterion={self.criterion}, "
            f"converged_at={self._converged_at})"
        )


def convergence_iteration(
    accuracies: Sequence[float], criterion: float, patience: int = 3
) -> Optional[int]:
    """Offline variant: convergence iteration for a recorded curve.

    Returns the 1-based iteration where accuracy first reached
    ``criterion`` and held for ``patience`` iterations, or ``None`` if
    it never did.  Equal to feeding the curve through a
    :class:`ConvergenceDetector`, errors included: the streak stops
    counting at the first stable run, but every value is still
    range-checked, in one pass.
    """
    # The detector validates the arguments, with its own messages.
    ConvergenceDetector(criterion=criterion, patience=patience)
    values = iter(accuracies)
    streak = 0
    for iteration, accuracy in enumerate(values, 1):
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {accuracy}")
        if accuracy < criterion:
            streak = 0
            continue
        streak += 1
        if streak == patience:
            for accuracy in values:
                if not 0.0 <= accuracy <= 1.0:
                    raise ValueError(
                        f"accuracy must be in [0, 1], got {accuracy}"
                    )
            return iteration - patience + 1
    return None
