"""ADL recognition: which activity does a usage stream belong to?

A care home deploys CoReDA for many activities at once; before
guiding, the server must decide *which* ADL an incoming usage stream
is (the problem of the paper's related work [2], solved there with
RFID + probabilistic inference).  The recognizer scores the stream
under one routine-structured HMM per candidate ADL and classifies by
posterior.

With the shipped ADL library the tool-id spaces are disjoint, so the
interesting cases are noisy ones: substituted detections (a foreign
tool id in the stream) and gappy streams — both handled by the HMM's
noise floors rather than brittle set-membership.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.adl import ADL
from repro.recognition.hmm import DiscreteHMM

__all__ = ["ActivityRecognizer"]


class ActivityRecognizer:
    """Maximum-posterior ADL identification over usage streams."""

    def __init__(
        self,
        adls: Sequence[ADL],
        miss_probability: float = 0.15,
        substitution_noise: float = 0.05,
    ) -> None:
        if not adls:
            raise ValueError("need at least one candidate ADL")
        self.adls = list(adls)
        # One shared symbol alphabet across all candidates, so
        # likelihoods are comparable.
        tools = sorted(
            {step_id for adl in self.adls for step_id in adl.step_ids}
        )
        self._tool_to_symbol = {tool: index for index, tool in enumerate(tools)}
        n_symbols = len(tools)
        self._models: List[DiscreteHMM] = [
            self._build_model(
                adl, n_symbols, miss_probability, substitution_noise
            )
            for adl in self.adls
        ]

    def _build_model(
        self,
        adl: ADL,
        n_symbols: int,
        miss_probability: float,
        substitution_noise: float,
    ) -> DiscreteHMM:
        positions = len(adl.step_ids)
        prior = np.array(
            [miss_probability**k for k in range(positions)], dtype=float
        )
        prior /= prior.sum()
        transition = np.zeros((positions, positions))
        for i in range(positions):
            weights = {
                j: miss_probability ** (j - i - 1)
                for j in range(i + 1, positions)
            }
            if not weights:
                transition[i, i] = 1.0
                continue
            total = sum(weights.values())
            for j, weight in weights.items():
                transition[i, j] = weight / total
        emission = np.full(
            (positions, n_symbols), substitution_noise / max(n_symbols - 1, 1)
        )
        for position, step_id in enumerate(adl.step_ids):
            emission[position, self._tool_to_symbol[step_id]] = (
                1.0 - substitution_noise
            )
        emission /= emission.sum(axis=1, keepdims=True)
        return DiscreteHMM(prior, transition, emission)

    def posterior(self, observed: Sequence[int]) -> Dict[str, float]:
        """P(ADL | usage stream), uniform prior over candidates.

        Tools outside every candidate's alphabet are ignored; an
        empty effective stream returns the uniform prior.
        """
        symbols = [
            self._tool_to_symbol[tool]
            for tool in observed
            if tool in self._tool_to_symbol
        ]
        if not symbols:
            uniform = 1.0 / len(self.adls)
            return {adl.name: uniform for adl in self.adls}
        log_likelihoods = [
            model.log_likelihood(symbols) for model in self._models
        ]
        peak = max(log_likelihoods)
        weights = [float(np.exp(value - peak)) for value in log_likelihoods]
        total = sum(weights)
        return {
            adl.name: weight / total
            for adl, weight in zip(self.adls, weights)
        }

    def classify(self, observed: Sequence[int]) -> str:
        """The maximum-posterior ADL name (ties break alphabetically)."""
        posterior = self.posterior(observed)
        return max(sorted(posterior), key=lambda name: posterior[name])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ActivityRecognizer(candidates={[a.name for a in self.adls]})"
