"""Small statistics helpers shared by tests and the evaluation harness."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["proportion", "mean", "sample_sd"]


def proportion(successes: int, trials: int) -> float:
    """successes / trials, refusing the undefined 0/0 case."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes={successes} outside [0, {trials}]")
    return successes / trials


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (non-empty input required)."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def sample_sd(values: Sequence[float]) -> float:
    """Unbiased sample standard deviation (0.0 for n < 2)."""
    n = len(values)
    if n < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (n - 1))

