"""Batched HMM inference: ULP-identity with the scalar reference."""

import numpy as np
import pytest

from oracles.inference import ScalarRecognizer
from repro.recognition import ActivityRecognizer, BatchedHMM, DiscreteHMM
from repro.recognition.hmm import _logsumexp, _logsumexp_matrix


def random_model(rng, n_states, n_symbols):
    prior = rng.dirichlet(np.ones(n_states))
    transition = rng.dirichlet(np.ones(n_states), size=n_states)
    emission = rng.dirichlet(np.ones(n_symbols), size=n_states)
    return DiscreteHMM(prior, transition, emission)


@pytest.fixture
def model_stack():
    rng = np.random.default_rng(42)
    n_symbols = 6
    models = [
        random_model(rng, n_states, n_symbols)
        for n_states in (2, 5, 9, 3, 7)
    ]
    return models, n_symbols


class TestBatchedForward:
    def test_single_stream_ulp_identical(self, model_stack):
        models, n_symbols = model_stack
        rng = np.random.default_rng(1)
        batched = BatchedHMM(models)
        for length in (1, 2, 7, 33):
            stream = rng.integers(0, n_symbols, size=length).tolist()
            got = batched.log_likelihoods(stream)
            reference = [m.log_likelihood(stream) for m in models]
            assert got.tolist() == reference

    def test_matrix_ulp_identical_mixed_lengths(self, model_stack):
        models, n_symbols = model_stack
        rng = np.random.default_rng(2)
        batched = BatchedHMM(models)
        streams = [
            rng.integers(0, n_symbols, size=length).tolist()
            for length in (11, 1, 0, 27, 4, 11, 2)
        ]
        matrix = batched.log_likelihood_matrix(streams)
        reference = [
            [m.log_likelihood(s) for m in models] for s in streams
        ]
        assert matrix.tolist() == reference

    def test_boundary_symbol_accepted(self, model_stack):
        models, n_symbols = model_stack
        batched = BatchedHMM(models)
        stream = [n_symbols - 1, 0, n_symbols - 1]
        assert batched.log_likelihoods(stream).tolist() == [
            m.log_likelihood(stream) for m in models
        ]

    def test_empty_stream_is_zeros(self, model_stack):
        models, _ = model_stack
        batched = BatchedHMM(models)
        assert batched.log_likelihoods([]).tolist() == [0.0] * len(models)
        assert batched.log_likelihood_matrix([]).shape == (0, len(models))

    def test_out_of_range_symbol_rejected(self, model_stack):
        models, n_symbols = model_stack
        batched = BatchedHMM(models)
        with pytest.raises(ValueError, match=f"observation {n_symbols} "):
            batched.log_likelihoods([0, n_symbols])
        with pytest.raises(ValueError, match="observation -1 "):
            batched.log_likelihood_matrix([[0], [-1]])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            BatchedHMM([])

    def test_mismatched_alphabets_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            BatchedHMM(
                [random_model(rng, 3, 4), random_model(rng, 3, 5)]
            )


class TestHMMNumericalEdges:
    def test_all_neginf_column_through_logsumexp_matrix(self):
        matrix = np.array(
            [[0.0, -np.inf], [-1.0, -np.inf]]
        )
        with np.errstate(divide="ignore"):
            out = _logsumexp_matrix(matrix)
        assert out[0] == pytest.approx(np.log(1 + np.e) - 1.0)
        assert np.isneginf(out[1])

    def test_logsumexp_all_neginf(self):
        assert np.isneginf(_logsumexp(np.array([-np.inf, -np.inf])))

    def test_scalar_empty_sequence_contracts(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 3, 4)
        assert model.log_likelihood([]) == 0.0
        assert model.viterbi([]) == ([], 0.0)
        # filter([]) falls back to the (normalized) prior.
        assert model.filter([]).sum() == pytest.approx(1.0)

    def test_scalar_boundary_and_negative_symbols(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3, 4)
        model.log_likelihood([3, 0, 3])
        with pytest.raises(ValueError, match="observation 4 "):
            model.log_likelihood([0, 4])
        with pytest.raises(ValueError, match="observation -2 "):
            model.viterbi([0, -2])


class TestRecognizerBackends:
    def streams(self, registry):
        streams = [[], [999]]
        for name in registry.names():
            ids = list(registry.get(name).adl.step_ids)
            streams.extend([ids, ids[:2], ids[::-1]])
        return streams

    def test_backends_byte_identical(self, registry):
        adls = [registry.get(name).adl for name in registry.names()]
        batched = ActivityRecognizer(adls)
        scalar = ScalarRecognizer(adls)
        for stream in self.streams(registry):
            assert batched.posterior(stream) == scalar.posterior(stream)
            assert batched.classify(stream) == scalar.classify(stream)

    def test_batch_calls_match_scalar_loop(self, registry):
        adls = [registry.get(name).adl for name in registry.names()]
        batched = ActivityRecognizer(adls)
        scalar = ScalarRecognizer(adls)
        streams = self.streams(registry)
        assert batched.posterior_batch(streams) == [
            scalar.posterior(s) for s in streams
        ]
        assert batched.classify_batch(streams) == [
            scalar.classify(s) for s in streams
        ]
        # The oracle's batch API is the plain loop.
        assert scalar.posterior_batch(streams) == batched.posterior_batch(
            streams
        )
