"""Episode repair: fixing sensing dropouts in training logs.

Table 3 shows the sensing subsystem misses short steps ~15-20% of the
time, so real training logs are *gappy*: a recorded tea-making run
may read ``[tea-box, kettle, tea-cup]`` with the pot step missing.
Training directly on gappy logs teaches wrong transitions (tea-box →
kettle).

:class:`EpisodeRepairer` rebuilds the most likely complete run with a
routine-structured HMM:

* hidden state = position in the known routine;
* transitions advance by one position per observation, with geometric
  probability of having *skipped* positions (a skip = a missed
  detection);
* emissions are the position's tool, with a small substitution noise.

Viterbi over the observed tools yields the most likely positions;
the skipped positions in between are re-inserted.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.adl import Routine
from repro.recognition.hmm import DiscreteHMM

__all__ = ["EpisodeRepairer"]

#: The chance that a detection is missed, and that a detection names
#: another of the ADL's tools.
MISS_PROBABILITY = 0.15
SUBSTITUTION_NOISE = 0.02


class EpisodeRepairer:
    """Repairs gappy episode logs against a known routine."""

    def __init__(self, routine: Routine) -> None:
        miss_probability = MISS_PROBABILITY
        substitution_noise = SUBSTITUTION_NOISE
        self.routine = routine
        self.miss_probability = miss_probability
        positions = len(routine.step_ids)
        tools = sorted(routine.adl.step_ids)
        self._tool_to_symbol: Dict[int, int] = {
            tool: index for index, tool in enumerate(tools)
        }
        self._symbols = tools
        n_symbols = len(tools)

        # Prior: the first *observed* tool is position k if positions
        # 0..k-1 were all missed.
        prior = np.array(
            [miss_probability**k for k in range(positions)], dtype=float
        )
        prior /= prior.sum()

        # Transition: from position i the next observation comes from
        # position j > i, having missed j-i-1 detections in between.
        transition = np.zeros((positions, positions))
        for i in range(positions):
            weights = {
                j: miss_probability ** (j - i - 1)
                for j in range(i + 1, positions)
            }
            if not weights:
                transition[i, i] = 1.0  # terminal position absorbs
                continue
            total = sum(weights.values())
            for j, weight in weights.items():
                transition[i, j] = weight / total

        emission = np.full(
            (positions, n_symbols), substitution_noise / max(n_symbols - 1, 1)
        )
        for position, step_id in enumerate(routine.step_ids):
            emission[position, self._tool_to_symbol[step_id]] = (
                1.0 - substitution_noise
            )
        emission /= emission.sum(axis=1, keepdims=True)
        self._hmm = DiscreteHMM(prior, transition, emission)

    def repair(self, observed: Sequence[int]) -> List[int]:
        """The most likely complete step sequence behind ``observed``.

        Tools that do not belong to the ADL are dropped (foreign
        detections); an empty observation list repairs to the full
        routine (the run happened, the radio was down).
        """
        symbols = [
            self._tool_to_symbol[tool]
            for tool in observed
            if tool in self._tool_to_symbol
        ]
        if not symbols:
            return list(self.routine.step_ids)
        path, _ = self._hmm.viterbi(symbols)
        # Re-insert every routine position from the start through the
        # last decoded one; positions beyond the final observation are
        # unknown (the run may genuinely have been cut short).
        last_position = path[-1]
        return list(self.routine.step_ids[: last_position + 1])

    def repair_all(
        self, episodes: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """Repair a whole training log."""
        return [self.repair(episode) for episode in episodes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EpisodeRepairer(routine={list(self.routine.step_ids)}, "
            f"miss={self.miss_probability})"
        )
