"""Batched HMM forward inference across many models and streams.

The recognizer scores one usage stream under every candidate ADL's
HMM; a fleet shard scores *many* residents' streams under the same
candidates.  Running the forward recursion per (stream, model) pair
repays the Python/NumPy dispatch overhead |streams| x |models| times
per timestep.  :class:`BatchedHMM` stacks the candidate models into
padded ``(M, S)`` / ``(M, S, S)`` / ``(M, S, V)`` log-parameter
tensors and runs **one** forward recursion for the whole stack -- a
single logsumexp per timestep covers every model (and, in the matrix
form, every stream).

The contract, as for every fast path in this codebase, is
**bit-identity** with the scalar reference (:meth:`DiscreteHMM.
log_likelihood`), which holds by construction:

* models are padded to the widest state count with ``-inf`` log
  parameters.  Padded entries contribute ``exp(-inf) = 0`` to the
  logsumexp sums -- and NumPy accumulates reductions over a non-final
  axis sequentially in index order, so trailing zeros leave every
  partial sum bit-identical -- and ``-inf`` to the maxes, which are
  order-independent;
* the per-timestep tensor ops are elementwise identical to the
  scalar ``_logsumexp_matrix`` step (same subtraction, same ``exp`` /
  ``log`` calls on the same floats);
* the final per-model reduction reuses the scalar ``_logsumexp`` on
  each model's *unpadded* state slice, so even the last pairwise
  1-D summation is the literal reference computation.

``tests/test_recognition_batch.py`` pins the equality to the last ULP
on randomized model stacks of mixed sizes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.recognition.hmm import DiscreteHMM, _logsumexp

__all__ = ["BatchedHMM"]


def _batched_logsumexp(scores: np.ndarray) -> np.ndarray:
    """Logsumexp over the source-state axis (``-2``) of ``scores``.

    Mirrors the scalar ``_logsumexp_matrix`` exactly: peak-shift with
    all-``-inf`` columns clamped to a safe peak of 0, so a padded
    column comes out ``-inf`` (``log(0)``) instead of NaN.  The
    reduced axis is never the last one, so NumPy sums it sequentially
    in index order -- the property the bit-identity argument needs.
    """
    peak = scores.max(axis=-2)
    safe = np.where(np.isneginf(peak), 0.0, peak)
    with np.errstate(divide="ignore"):
        return safe + np.log(
            np.exp(scores - safe[..., None, :]).sum(axis=-2)
        )


class BatchedHMM:
    """A stack of :class:`DiscreteHMM` models scored in one recursion.

    Built *from* constructed models (not raw parameters) so the
    stacked log tensors are the models' own floats -- the noise-floor
    ``log(p + eps)`` arithmetic happens exactly once, in the scalar
    reference.
    """

    __slots__ = (
        "n_models",
        "n_symbols",
        "max_states",
        "_n_states",
        "_log_prior",
        "_log_transition",
        "_log_emission",
    )

    def __init__(self, models: Sequence[DiscreteHMM]) -> None:
        models = list(models)
        if not models:
            raise ValueError("need at least one model to batch")
        n_symbols = models[0].n_symbols
        for model in models[1:]:
            if model.n_symbols != n_symbols:
                raise ValueError(
                    "all models must share one symbol alphabet; got "
                    f"{model.n_symbols} symbols vs {n_symbols}"
                )
        self.n_models = len(models)
        self.n_symbols = n_symbols
        self._n_states: List[int] = [model.n_states for model in models]
        self.max_states = max(self._n_states)
        shape = (self.n_models, self.max_states)
        self._log_prior = np.full(shape, -np.inf)
        self._log_transition = np.full(shape + (self.max_states,), -np.inf)
        self._log_emission = np.full(shape + (n_symbols,), -np.inf)
        for index, model in enumerate(models):
            n = model.n_states
            self._log_prior[index, :n] = model._log_prior
            self._log_transition[index, :n, :n] = model._log_transition
            self._log_emission[index, :n, :] = model._log_emission

    # ------------------------------------------------------------------
    # inference

    def log_likelihoods(self, observations: Sequence[int]) -> np.ndarray:
        """``log P(observations | model m)`` for every model, shape (M,).

        An empty sequence returns zeros -- the scalar contract
        (``log_likelihood([]) == 0.0``) per model.
        """
        obs = self._check_symbols(observations)
        if obs is None:
            return np.zeros(self.n_models)
        emission = self._log_emission[:, :, obs]  # (M, S, T)
        alpha = self._log_prior + emission[:, :, 0]
        transition = self._log_transition
        for t in range(1, obs.shape[0]):
            alpha = (
                _batched_logsumexp(alpha[:, :, None] + transition)
                + emission[:, :, t]
            )
        return self._finalize(alpha)

    def log_likelihood_matrix(
        self, streams: Sequence[Sequence[int]]
    ) -> np.ndarray:
        """``log P(stream r | model m)`` for every pair, shape (R, M).

        Streams may have different lengths: shorter streams are
        masked out of later timesteps (their forward rows freeze at
        their own final step), so each row equals the single-stream
        result bit for bit.  Empty streams get all-zero rows.
        """
        checked = [self._check_symbols(stream) for stream in streams]
        n_streams = len(checked)
        result = np.zeros((n_streams, self.n_models))
        lengths = np.array(
            [0 if obs is None else obs.shape[0] for obs in checked],
            dtype=np.intp,
        )
        horizon = int(lengths.max()) if n_streams else 0
        if horizon == 0:
            return result
        obs = np.zeros((n_streams, horizon), dtype=np.intp)
        for row, stream in enumerate(checked):
            if stream is not None:
                obs[row, : stream.shape[0]] = stream
        # (R, M, S) forward rows; rows of empty streams hold garbage
        # and are overwritten with the 0.0 contract at the end.
        alpha = self._log_prior[None] + np.moveaxis(
            self._log_emission[:, :, obs[:, 0]], 2, 0
        )
        transition = self._log_transition[None]
        for t in range(1, horizon):
            step = (
                _batched_logsumexp(alpha[:, :, :, None] + transition)
                + np.moveaxis(self._log_emission[:, :, obs[:, t]], 2, 0)
            )
            np.copyto(alpha, step, where=(lengths > t)[:, None, None])
        for row in range(n_streams):
            if lengths[row]:
                result[row] = self._finalize(alpha[row])
        return result

    # ------------------------------------------------------------------
    # internals

    def _finalize(self, alpha: np.ndarray) -> np.ndarray:
        """Per-model logsumexp of the final forward rows, shape (M,).

        Runs the scalar ``_logsumexp`` on each model's unpadded slice
        so the 1-D pairwise summation matches the reference exactly
        (padded entries would reshuffle its accumulator blocking).
        """
        out = np.empty(self.n_models)
        for index in range(self.n_models):
            out[index] = _logsumexp(alpha[index, : self._n_states[index]])
        return out

    def _check_symbols(self, observations: Sequence[int]) -> Optional[np.ndarray]:
        """Validate and return ``observations`` as an int array.

        Same contract as the scalar model's check (same message, first
        offender named); ``None`` for an empty sequence.
        """
        if not isinstance(observations, (list, tuple, np.ndarray)):
            observations = list(observations)
        arr = np.asarray(observations, dtype=np.intp)
        if arr.shape[0] == 0:
            return None
        bad = (arr < 0) | (arr >= self.n_symbols)
        if bad.any():
            symbol = int(arr[int(np.argmax(bad))])
            raise ValueError(
                f"observation {symbol} outside [0, {self.n_symbols})"
            )
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchedHMM(models={self.n_models}, "
            f"max_states={self.max_states}, symbols={self.n_symbols})"
        )
