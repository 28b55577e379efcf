"""Unit tests for the HMM recognition package."""

import numpy as np
import pytest

from repro.core.adl import Routine
from repro.recognition.hmm import DiscreteHMM, _logsumexp, _logsumexp_matrix
from repro.recognition.recognizer import ActivityRecognizer
from repro.recognition.repair import EpisodeRepairer


def two_state_hmm(stay=0.7, correct=0.9):
    prior = np.array([1.0, 0.0])
    transition = np.array([[stay, 1 - stay], [0.0, 1.0]])
    emission = np.array([[correct, 1 - correct], [1 - correct, correct]])
    return DiscreteHMM(prior, transition, emission)


class TestDiscreteHMM:
    def test_row_sums_validated(self):
        with pytest.raises(ValueError):
            DiscreteHMM(
                np.array([0.5, 0.4]),
                np.eye(2),
                np.array([[0.5, 0.5], [0.5, 0.5]]),
            )

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            DiscreteHMM(
                np.array([1.0]),
                np.eye(2),
                np.array([[1.0]]),
            )

    def test_log_likelihood_of_likely_sequence_higher(self):
        hmm = two_state_hmm()
        likely = hmm.log_likelihood([0, 0, 1, 1])
        unlikely = hmm.log_likelihood([1, 1, 0, 0])
        assert likely > unlikely

    def test_log_likelihood_empty_is_zero(self):
        assert two_state_hmm().log_likelihood([]) == 0.0

    def test_viterbi_decodes_obvious_path(self):
        hmm = two_state_hmm(correct=0.95)
        path, score = hmm.viterbi([0, 0, 1, 1])
        assert path == [0, 0, 1, 1]
        assert score < 0.0

    def test_viterbi_empty(self):
        assert two_state_hmm().viterbi([]) == ([], 0.0)

    def test_filter_is_distribution(self):
        hmm = two_state_hmm()
        probabilities = hmm.filter([0, 1, 1])
        assert probabilities.shape == (2,)
        assert probabilities.sum() == pytest.approx(1.0)
        assert probabilities[1] > probabilities[0]

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(ValueError):
            two_state_hmm().log_likelihood([0, 5])

    def test_single_observation(self):
        hmm = two_state_hmm()
        path, _ = hmm.viterbi([0])
        assert path == [0]


def random_model(rng, n_states, n_symbols):
    prior = rng.dirichlet(np.ones(n_states))
    transition = rng.dirichlet(np.ones(n_states), size=n_states)
    emission = rng.dirichlet(np.ones(n_symbols), size=n_states)
    return DiscreteHMM(prior, transition, emission)


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


class TestEpisodeRepairer:
    @pytest.fixture
    def repairer(self, tea_adl):
        return EpisodeRepairer(tea_adl.canonical_routine())

    def test_clean_episode_unchanged(self, repairer):
        assert repairer.repair([1, 2, 3, 4]) == [1, 2, 3, 4]

    def test_single_gap_filled(self, repairer):
        assert repairer.repair([1, 3, 4]) == [1, 2, 3, 4]

    def test_double_gap_filled(self, repairer):
        assert repairer.repair([1, 4]) == [1, 2, 3, 4]

    def test_missing_first_step_restored(self, repairer):
        assert repairer.repair([2, 3, 4]) == [1, 2, 3, 4]

    def test_cut_short_episode_not_extended(self, repairer):
        # A run that genuinely stopped after step 2 must not be
        # hallucinated to completion.
        assert repairer.repair([1, 2]) == [1, 2]

    def test_empty_stream_repairs_to_full_routine(self, repairer):
        assert repairer.repair([]) == [1, 2, 3, 4]

    def test_foreign_tools_dropped(self, repairer):
        assert repairer.repair([1, 99, 3, 4]) == [1, 2, 3, 4]

    def test_repair_all(self, repairer):
        repaired = repairer.repair_all([[1, 3, 4], [1, 2, 3, 4]])
        assert repaired == [[1, 2, 3, 4], [1, 2, 3, 4]]

    def test_personalized_routine_respected(self, tea_adl):
        repairer = EpisodeRepairer(Routine(tea_adl, [1, 3, 2, 4]))
        assert repairer.repair([1, 2, 4]) == [1, 3, 2, 4]

    def test_parameter_validation(self, tea_adl):
        with pytest.raises(ValueError):
            EpisodeRepairer(tea_adl.canonical_routine(), miss_probability=1.0)

    def test_improves_training_on_gappy_logs(self, tea_adl):
        from repro.planning.trainer import RoutineTrainer
        from repro.resident.routines import noisy_episodes

        routine = tea_adl.canonical_routine()
        rng = np.random.default_rng(100)
        noisy = noisy_episodes(routine, 120, rng, miss_probability=0.2)
        repaired = EpisodeRepairer(routine, miss_probability=0.2).repair_all(
            noisy
        )

        def final_accuracy(log, seed=0):
            trainer = RoutineTrainer(tea_adl, rng=np.random.default_rng(seed))
            return trainer.train(log, routine=routine).curve.greedy_accuracy[-1]

        assert final_accuracy(repaired) == 1.0
        assert final_accuracy(repaired) > final_accuracy(noisy)


class TestActivityRecognizer:
    @pytest.fixture
    def recognizer(self, registry):
        return ActivityRecognizer(
            [registry.get(name).adl for name in registry.names()]
        )

    def test_classifies_clean_streams(self, recognizer, registry):
        for name in registry.names():
            adl = registry.get(name).adl
            assert recognizer.classify(adl.step_ids) == name

    def test_classifies_gappy_streams(self, recognizer):
        assert recognizer.classify([1, 4]) == "tea-making"
        assert recognizer.classify([11, 14]) == "tooth-brushing"

    def test_tolerates_substitution_noise(self, recognizer):
        # One foreign detection in a tea stream.
        assert recognizer.classify([1, 12, 3, 4]) == "tea-making"

    def test_posterior_sums_to_one(self, recognizer):
        posterior = recognizer.posterior([1, 2, 3])
        assert sum(posterior.values()) == pytest.approx(1.0)

    def test_empty_stream_uniform(self, recognizer, registry):
        posterior = recognizer.posterior([])
        assert all(
            value == pytest.approx(1.0 / len(registry))
            for value in posterior.values()
        )

    def test_needs_candidates(self):
        with pytest.raises(ValueError):
            ActivityRecognizer([])


#: ``ActivityRecognizer.posterior`` over every registered ADL, recorded
#: bit for bit when the candidates were scored by a stacked forward
#: recursion.  Probabilities are in ``registry.names()`` order.  The
#: streams are: empty, one foreign tool, then for each ADL its clean
#: routine, its first two steps and its routine reversed.
POSTERIOR_PINS = [
    ((),
     (0.2, 0.2, 0.2,
      0.2, 0.2)),
    ((999,),
     (0.2, 0.2, 0.2,
      0.2, 0.2)),
    ((41, 42, 43, 44, 45),
     (0.9999999999995319, 1.1699391139505286e-13, 1.1699391139446806e-13,
      1.1699391139388282e-13, 1.1699391139388282e-13)),
    ((41, 42),
     (0.9999710386655977, 7.24033360060241e-06, 7.24033360058794e-06,
      7.240333600573458e-06, 7.240333600573458e-06)),
    ((45, 44, 43, 42, 41),
     (0.9864620134227885, 0.0033844966443240076, 0.0033844966443070893,
      0.0033844966442901597, 0.0033844966442901597)),
    ((31, 32, 33, 34, 35, 36),
     (3.149618490103341e-16, 0.9999999999999991, 3.149618490103341e-16,
      3.1496184900844307e-16, 3.1496184900844307e-16)),
    ((31, 32),
     (7.243909863489281e-06, 0.9999710243605461, 7.243909863489281e-06,
      7.2439098634747926e-06, 7.2439098634747926e-06)),
    ((36, 35, 34, 33, 32, 31),
     (0.007685148083027822, 0.9692594076679811, 0.007685148083027822,
      0.007685148082981679, 0.007685148082981679)),
    ((21, 22, 23, 24, 25),
     (1.1699391139446806e-13, 1.1699391139505286e-13, 0.9999999999995319,
      1.1699391139388282e-13, 1.1699391139388282e-13)),
    ((21, 22),
     (7.2403336005879415e-06, 7.2403336006024105e-06, 0.9999710386655979,
      7.240333600573459e-06, 7.240333600573459e-06)),
    ((25, 24, 23, 22, 21),
     (0.0033844966443070893, 0.0033844966443240076, 0.9864620134227885,
      0.0033844966442901597, 0.0033844966442901597)),
    ((1, 2, 3, 4),
     (4.3460688656208e-11, 4.3460688656381866e-11, 4.3460688656208e-11,
      0.9999999998261571, 4.3460688656034146e-11)),
    ((1, 2),
     (7.216501917733368e-06, 7.21650191774779e-06, 7.216501917733368e-06,
      0.9999711339923291, 7.216501917718934e-06)),
    ((4, 3, 2, 1),
     (0.009799065154055162, 0.009799065154094361, 0.009799065154055162,
      0.9608037393837795, 0.00979906515401596)),
    ((11, 12, 13, 14),
     (4.346068865620801e-11, 4.346068865638187e-11, 4.346068865620801e-11,
      4.346068865603415e-11, 0.9999999998261573)),
    ((11, 12),
     (7.216501917733368e-06, 7.21650191774779e-06, 7.216501917733368e-06,
      7.216501917718934e-06, 0.9999711339923291)),
    ((14, 13, 12, 11),
     (0.009799065154055158, 0.00979906515409436, 0.009799065154055158,
      0.009799065154015959, 0.9608037393837793)),
]


class TestRecognizerPosteriorPin:
    @pytest.fixture
    def recognizer(self, registry):
        return ActivityRecognizer(
            [registry.get(name).adl for name in registry.names()]
        )

    def test_posteriors_bit_identical_to_pins(self, recognizer, registry):
        names = registry.names()
        for stream, expected in POSTERIOR_PINS:
            posterior = recognizer.posterior(list(stream))
            assert posterior == dict(zip(names, expected)), stream
            assert list(posterior) == names

    def test_classify_is_max_posterior(self, recognizer, registry):
        names = registry.names()
        for stream, expected in POSTERIOR_PINS:
            best = max(sorted(names), key=dict(zip(names, expected)).get)
            assert recognizer.classify(list(stream)) == best
