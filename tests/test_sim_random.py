"""Unit tests for named random streams and decoded generator draws."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.random import (
    Pcg64Draws,
    RandomStreams,
    StreamBatch,
    derive_seed,
    generator_draws,
    seed_sequence_words,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "radio") == derive_seed(42, "radio")

    def test_name_separates(self):
        assert derive_seed(42, "radio") != derive_seed(42, "signal")

    def test_master_seed_separates(self):
        assert derive_seed(1, "radio") != derive_seed(2, "radio")

    def test_fits_in_63_bits(self):
        for name in ("a", "b", "radio.1", "x" * 100):
            assert 0 <= derive_seed(123, name) < 2**63


class TestRandomStreams:
    def test_same_name_same_generator_object(self):
        streams = RandomStreams(0)
        assert streams.get("a") is streams.get("a")

    def test_different_names_independent_draws(self):
        streams = RandomStreams(0)
        a = streams.get("a").random(5)
        b = streams.get("b").random(5)
        assert list(a) != list(b)

    def test_reproducible_across_instances(self):
        first = RandomStreams(7).get("x").random(5)
        second = RandomStreams(7).get("x").random(5)
        assert list(first) == list(second)

    def test_adding_stream_does_not_perturb_existing(self):
        solo = RandomStreams(7)
        value_solo = solo.get("a").random()

        pair = RandomStreams(7)
        pair.get("b").random()  # interleave another stream
        value_pair = pair.get("a").random()
        assert value_solo == value_pair

    def test_fork_is_deterministic_and_distinct(self):
        streams = RandomStreams(7)
        fork_a = streams.fork("child")
        fork_b = RandomStreams(7).fork("child")
        assert fork_a.master_seed == fork_b.master_seed
        assert fork_a.master_seed != streams.master_seed

    def test_cache_keeps_one_generator_per_name(self):
        streams = RandomStreams(0)
        a = streams.get("a")
        b = streams.get("b")
        assert b is not a
        assert streams.get("a") is a
        assert streams.get("b") is b


class TestStreamBatch:
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=8))
    @example([0])
    @example([2**32 - 1])
    @example([2**32])
    @example([2**63 - 1])
    @example([0, 2**32 - 1, 2**32, 2**63 - 1])
    def test_words_and_generators_equal_numpys_seeding(self, seeds):
        words = seed_sequence_words(seeds)
        assert words.shape == (len(seeds), 4)
        assert words.dtype == np.uint64
        batch = StreamBatch()
        batch.seed((seed, "s") for seed in seeds)
        for seed, row in zip(seeds, words):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist()
            rng = batch.take(seed, "s")
            reference = np.random.default_rng(derive_seed(seed, "s"))
            if rng is not None:  # a repeated seed is handed out once
                assert rng.bit_generator.state == reference.bit_generator.state
                assert rng.random(3).tolist() == reference.random(3).tolist()

    def test_streams_take_from_the_batch_then_seed_on_their_own(self):
        fork = RandomStreams(7).fork("home")
        batch = StreamBatch()
        batch.seed([(fork.master_seed, "radio")])
        batched = RandomStreams(7, batch).fork("home")
        assert batched.get("radio") is batched.get("radio")
        assert batch.take(fork.master_seed, "radio") is None
        for name in ("radio", "signal.1"):
            assert (
                batched.get(name).bit_generator.state
                == RandomStreams(7).fork("home").get(name).bit_generator.state
            )

    def test_a_fork_under_the_batch_derives_its_seed_once(self, monkeypatch):
        import repro.sim.random as random_module

        expected = RandomStreams(7).fork("home").master_seed
        calls = []
        derive = random_module.derive_seed
        monkeypatch.setattr(
            random_module, "derive_seed",
            lambda *args: calls.append(args) or derive(*args),
        )
        batch = StreamBatch()
        first = RandomStreams(7, batch).fork("home")
        again = RandomStreams(7, batch).fork("home")
        assert first.master_seed == again.master_seed == expected
        assert calls == [(7, "fork:home")]

    def test_batched_generators_pickle(self):
        import pickle

        batch = StreamBatch()
        batch.seed([(1, "a")])
        rng = batch.take(1, "a")
        copy = pickle.loads(pickle.dumps(rng))
        assert copy.random(4).tolist() == rng.random(4).tolist()


# Ranges: one value (draws nothing), small ones, one that rejects about
# half its attempts, and the full 32-bit range.
_RANGES = st.sampled_from([1, 2, 3, 8, 13, 1000, 2**31 + 1, 2**32 - 1, 2**32])
_OPS = st.lists(
    st.one_of(
        st.just(("random",)),
        st.tuples(st.just("integers"), _RANGES, st.integers(0, 70)),
    ),
    max_size=30,
)


def _replay(draws, ops):
    out = []
    for op in ops:
        if op[0] == "random":
            out.append(draws.random())
        else:
            out.append(draws.integers(op[1], op[2]))
    return out


class _Numpy:
    """The reference: numpy's own calls."""

    def __init__(self, rng):
        self.rng = rng

    def random(self):
        return self.rng.random()

    def integers(self, n, k):
        return self.rng.integers(n, size=k).tolist()


class TestGeneratorDraws:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        # An odd number of 32-bit draws leaves a half buffered.
        lead=st.integers(0, 3),
        reserve=st.sampled_from([0, 1, 5, 200]),
        ops=_OPS,
    )
    def test_pcg64_draws_replay_numpy_and_its_end_state(
        self, seed, lead, reserve, ops
    ):
        expected_rng = np.random.default_rng(seed)
        decoded_rng = np.random.default_rng(seed)
        for rng in (expected_rng, decoded_rng):
            rng.integers(7, size=lead)
        draws = generator_draws(decoded_rng, reserve)
        assert type(draws) is Pcg64Draws
        decoded = _replay(draws, ops)
        draws.close()
        assert decoded == _replay(_Numpy(expected_rng), ops)
        assert (
            decoded_rng.bit_generator.state
            == expected_rng.bit_generator.state
        )

    def test_other_bit_generators_are_refused(self):
        rng = np.random.Generator(np.random.MT19937(4))
        expected = np.random.Generator(np.random.MT19937(4))
        with pytest.raises(TypeError, match="MT19937"):
            generator_draws(rng, 10)
        # Refused before any draw: the generator is untouched.
        assert rng.random(5).tolist() == expected.random(5).tolist()

    def test_close_rewinds_an_unused_draw_ahead(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        generator_draws(rng, 500).close()
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n", [2, 2**31 + 1])
    def test_a_long_run_outlasts_the_reserve(self, n):
        expected = np.random.default_rng(8)
        rng = np.random.default_rng(8)
        draws = generator_draws(rng, 1)
        expected_values = expected.integers(n, size=300).tolist()
        assert draws.integers(n, 300) == expected_values
        draws.close()
        assert rng.bit_generator.state == expected.bit_generator.state
