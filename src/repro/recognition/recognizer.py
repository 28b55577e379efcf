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

The candidate models are stacked into one :class:`~repro.recognition.
batch.BatchedHMM`, so a posterior costs one forward recursion instead
of one per candidate, and whole fleets of streams can be classified
in a single call (:meth:`ActivityRecognizer.classify_batch`).  The
per-model loop it replaced is the bit-identical oracle in
``tests/oracles/inference.py``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.adl import ADL
from repro.recognition.batch import BatchedHMM
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
        self._models: Dict[str, DiscreteHMM] = {}
        for adl in self.adls:
            self._models[adl.name] = self._build_model(
                adl, n_symbols, miss_probability, substitution_noise
            )
        # Model stack in candidate order (== dict insertion order), so
        # batched likelihood vectors zip back onto names losslessly.
        self._names: List[str] = [adl.name for adl in self.adls]
        self._batched = BatchedHMM(
            [self._models[name] for name in self._names]
        )

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

    def _effective_symbols(self, observed: Sequence[int]) -> List[int]:
        """The stream mapped onto the shared alphabet (unknowns dropped)."""
        return [
            self._tool_to_symbol[tool]
            for tool in observed
            if tool in self._tool_to_symbol
        ]

    def _posterior_from_likelihoods(
        self, log_likelihoods: Sequence[float]
    ) -> Dict[str, float]:
        """Normalize per-candidate log-likelihoods (uniform prior)."""
        peak = max(log_likelihoods)
        weights = [float(np.exp(value - peak)) for value in log_likelihoods]
        total = sum(weights)
        return {
            name: weight / total
            for name, weight in zip(self._names, weights)
        }

    def posterior(self, observed: Sequence[int]) -> Dict[str, float]:
        """P(ADL | usage stream), uniform prior over candidates.

        Tools outside every candidate's alphabet are ignored; an
        empty effective stream returns the uniform prior.
        """
        symbols = self._effective_symbols(observed)
        if not symbols:
            uniform = 1.0 / len(self.adls)
            return {adl.name: uniform for adl in self.adls}
        values = self._batched.log_likelihoods(symbols).tolist()
        return self._posterior_from_likelihoods(values)

    def classify(self, observed: Sequence[int]) -> str:
        """The maximum-posterior ADL name (ties break alphabetically)."""
        posterior = self.posterior(observed)
        return max(sorted(posterior), key=lambda name: posterior[name])

    def posterior_batch(
        self, streams: Sequence[Sequence[int]]
    ) -> List[Dict[str, float]]:
        """One posterior dict per stream, in stream order.

        Every stream of every candidate runs through a single stacked
        forward recursion; the outputs are bit-identical to a loop
        over :meth:`posterior`.
        """
        effective = [self._effective_symbols(stream) for stream in streams]
        nonempty = [sym for sym in effective if sym]
        matrix = self._batched.log_likelihood_matrix(nonempty)
        uniform = 1.0 / len(self.adls)
        posteriors = []
        row = 0
        for symbols in effective:
            if not symbols:
                posteriors.append({adl.name: uniform for adl in self.adls})
                continue
            posteriors.append(
                self._posterior_from_likelihoods(matrix[row].tolist())
            )
            row += 1
        return posteriors

    def classify_batch(self, streams: Sequence[Sequence[int]]) -> List[str]:
        """The maximum-posterior ADL name per stream, in stream order."""
        return [
            max(sorted(posterior), key=lambda name: posterior[name])
            for posterior in self.posterior_batch(streams)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ActivityRecognizer(candidates={[a.name for a in self.adls]})"
