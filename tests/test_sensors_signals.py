"""Unit tests for synthetic sensor waveforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors.signals import SignalProfile, SignalSource, sample_clock
from repro.sim.ziggurat import KI


def source(profile=None, seed=0):
    return SignalSource(
        profile if profile is not None else SignalProfile(),
        np.random.default_rng(seed),
    )


class TestProfileValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"burst_probability": 0.0},
            {"burst_probability": 1.5},
            {"burst_mean": 0.0},
            {"noise_sd": -0.1},
            {"burst_sd": -0.1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SignalProfile(**kwargs)

    @pytest.mark.parametrize(
        "field", ["burst_probability", "burst_mean", "burst_sd", "noise_sd"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SignalProfile(**{field: value})


class TestGeneratorGuard:
    @pytest.mark.parametrize(
        "rng",
        [
            np.random.Generator(np.random.MT19937(0)),
            np.random.Generator(np.random.PCG64DXSM(0)),
            np.random.RandomState(0),
            None,
        ],
        ids=["mt19937", "pcg64dxsm", "randomstate", "none"],
    )
    def test_non_pcg64_rejected(self, rng):
        with pytest.raises(TypeError, match="PCG64"):
            SignalSource(SignalProfile(), rng)


class TestRegimes:
    def test_idle_stays_below_threshold(self):
        src = source()
        samples = [src.read(t * 0.1) for t in range(2000)]
        assert max(samples) < 1.0  # noise_sd=0.18 => ~5.5 sigma

    def test_active_produces_bursts(self):
        src = source(SignalProfile(burst_probability=0.9))
        src.begin_use(0.0)
        samples = [src.read(t * 0.1) for t in range(100)]
        assert sum(1 for s in samples if s > 1.0) > 50

    def test_samples_non_negative(self):
        src = source()
        src.begin_use(0.0)
        assert all(src.read(t * 0.1) >= 0.0 for t in range(200))

    def test_end_use_returns_to_baseline(self):
        src = source(SignalProfile(burst_probability=0.9))
        src.begin_use(0.0)
        src.end_use()
        samples = [src.read(t * 0.1) for t in range(500)]
        assert max(samples) < 1.0

    def test_duration_auto_expires(self):
        src = source(SignalProfile(burst_probability=0.9))
        src.begin_use(0.0, duration=5.0)
        assert src.active
        src.read(6.0)
        assert not src.active

    def test_active_until_boundary_is_exclusive(self):
        src = source(SignalProfile(burst_probability=0.9))
        src.begin_use(0.0, duration=5.0)
        src.read(4.9)
        assert src.active
        src.read(5.0)
        assert not src.active


class TestReadTrace:
    def test_trace_length_and_values(self):
        src = source(SignalProfile(burst_probability=0.9))
        src.begin_use(0.0, duration=100.0)
        trace = src.read_trace(0.0, 50, 10.0)
        assert trace.shape == (50,)
        assert (trace >= 0).all()

    def test_trace_respects_expiry(self):
        src = source(SignalProfile(burst_probability=0.99, burst_mean=3.0))
        src.begin_use(0.0, duration=1.0)
        trace = src.read_trace(0.0, 100, 10.0)
        # After the first second (10 samples) the source is idle.
        assert max(trace[12:]) < 1.0

    def test_reproducible_given_seed(self):
        a = source(seed=5).read_trace(0.0, 20, 10.0)
        b = source(seed=5).read_trace(0.0, 20, 10.0)
        assert np.allclose(a, b)


def twin_sources(profile=None, seed=0):
    """Two sources with identical profile and RNG state."""
    return source(profile, seed), source(profile, seed)


class TestReadBlockEquivalence:
    """read_block / read_block_at must match scalar read draw-for-draw."""

    def rng_state(self, src):
        return src._rng.bit_generator.state

    def assert_equivalent(self, fast, ref, times):
        expected = [ref.read(t) for t in times]
        got = fast.read_block_at(times)
        assert got.tolist() == expected  # exact, not allclose
        assert self.rng_state(fast) == self.rng_state(ref)
        assert fast.active == ref.active
        assert fast.active_until == ref.active_until

    def test_idle_block(self):
        fast, ref = twin_sources()
        self.assert_equivalent(fast, ref, [i * 0.1 for i in range(37)])

    def test_active_infinite_block(self):
        fast, ref = twin_sources(SignalProfile(burst_probability=0.6))
        fast.begin_use(0.0)
        ref.begin_use(0.0)
        self.assert_equivalent(fast, ref, [i * 0.1 for i in range(50)])

    def test_expiry_mid_block(self):
        fast, ref = twin_sources(SignalProfile(burst_probability=0.6))
        fast.begin_use(0.0, duration=1.25)
        ref.begin_use(0.0, duration=1.25)
        self.assert_equivalent(fast, ref, [i * 0.1 for i in range(40)])

    def test_expiry_exactly_on_sample(self):
        # active_until lands exactly on a sample time: that sample
        # must already be idle (the boundary is exclusive).
        fast, ref = twin_sources(SignalProfile(burst_probability=0.9))
        fast.begin_use(0.0, duration=1.0)
        ref.begin_use(0.0, duration=1.0)
        self.assert_equivalent(fast, ref, [i * 0.25 for i in range(12)])

    def test_block_already_past_expiry(self):
        fast, ref = twin_sources(SignalProfile(burst_probability=0.9))
        fast.begin_use(0.0, duration=0.5)
        ref.begin_use(0.0, duration=0.5)
        self.assert_equivalent(fast, ref, [2.0 + i * 0.1 for i in range(10)])

    def test_accumulated_float_times(self):
        # read_block builds times by repeated addition, like a
        # firmware loop sleeping one period per sample; 0.1 * 3
        # accumulated differs from 3/10 in the last bit, and the
        # expiry comparison must see the accumulated value.
        fast, ref = twin_sources(SignalProfile(burst_probability=0.9))
        fast.begin_use(0.0, duration=0.30000000000000004)
        ref.begin_use(0.0, duration=0.30000000000000004)
        expected = []
        t = 0.0
        for _ in range(10):
            expected.append(ref.read(t))
            t += 0.1
        got = fast.read_block(0.0, 10, 10.0)
        assert got.tolist() == expected
        assert self.rng_state(fast) == self.rng_state(ref)

    def test_read_trace_matches_scalar_grid(self):
        # read_trace keeps its historical start + k/hz grid times.
        fast, ref = twin_sources(SignalProfile(burst_probability=0.5))
        fast.begin_use(0.0, duration=2.0)
        ref.begin_use(0.0, duration=2.0)
        times = 0.0 + np.arange(60) / 10.0
        expected = [ref.read(t) for t in times]
        got = fast.read_trace(0.0, 60, 10.0)
        assert got.tolist() == expected
        assert self.rng_state(fast) == self.rng_state(ref)

    def test_multiple_blocks_chain(self):
        fast, ref = twin_sources(SignalProfile(burst_probability=0.6))
        fast.begin_use(0.3, duration=1.5)
        ref.begin_use(0.3, duration=1.5)
        scalar = [ref.read(i * 0.1) for i in range(40)]
        chained = []
        for block in range(4):
            ts = [(block * 10 + i) * 0.1 for i in range(10)]
            chained.extend(fast.read_block_at(ts).tolist())
        assert chained == scalar
        assert self.rng_state(fast) == self.rng_state(ref)


class TestRegimeEpoch:
    def test_begin_and_end_bump_epoch(self):
        src = source()
        start = src.epoch
        src.begin_use(0.0)
        assert src.epoch == start + 1
        src.end_use()
        assert src.epoch == start + 2

    def test_auto_expiry_bumps_epoch_without_notify(self):
        src = source(SignalProfile(burst_probability=0.9))
        calls = []
        src.subscribe_regime(lambda: calls.append(src.epoch))
        src.begin_use(0.0, duration=1.0)
        assert len(calls) == 1
        before = src.epoch
        src.read(2.0)  # auto-expires inside the read
        assert src.epoch == before + 1
        assert len(calls) == 1  # no notification for self-observed expiry


class TestCaptureRestore:
    def test_restore_replays_identical_draws(self):
        src = source(SignalProfile(burst_probability=0.6))
        src.begin_use(0.0, duration=3.0)
        state = src.capture()
        first = src.read_block_at([i * 0.1 for i in range(40)])
        src.restore(state)
        second = src.read_block_at([i * 0.1 for i in range(40)])
        assert first.tolist() == second.tolist()

    def test_restore_recovers_regime(self):
        src = source(SignalProfile(burst_probability=0.9))
        src.begin_use(0.0, duration=1.0)
        state = src.capture()
        src.read(5.0)  # expires
        assert not src.active
        src.restore(state)
        assert src.active
        assert src.active_until == 1.0

    def test_set_regime_does_not_notify(self):
        src = source()
        calls = []
        src.subscribe_regime(lambda: calls.append(1))
        src.set_regime(True, 7.0)
        assert src.active
        assert src.active_until == 7.0
        assert calls == []


def _is_slow(word):
    """True if ``word`` leaves numpy's one-word ziggurat fast path."""
    return (word >> 9) & ((1 << 52) - 1) >= KI[word & 255]


class StreamPlan:
    """Where each active scalar read of a PCG64 stream finds its words.

    ``starts[i]`` is the generator position (words drawn) at which
    active sample ``i`` begins and ``slow[i]`` whether its normal word
    is slow.  A slow normal consumes a data-dependent number of words;
    the plan finds it by drawing that normal and matching the
    generator state against the advanced stream.
    """

    def __init__(self, seed, n):
        self.seed = seed
        words = np.random.default_rng(seed).bit_generator.random_raw(4 * n)
        self.words = words.tolist()
        self.starts = []
        self.slow = []
        pos = 0
        for _ in range(n):
            self.starts.append(pos)
            slow = _is_slow(self.words[pos + 1])
            self.slow.append(slow)
            pos += 2 if not slow else 1 + self._normal_words(pos + 1)

    def _normal_words(self, pos):
        rng = self.generator(pos)
        rng.normal()
        after = rng.bit_generator.state
        for used in range(1, 64):
            if self.generator(pos + used).bit_generator.state == after:
                return used
        raise AssertionError("slow normal consumed more than 63 words")

    def generator(self, pos):
        rng = np.random.default_rng(self.seed)
        rng.bit_generator.advance(pos)
        return rng

    def source_at(self, sample, profile=None):
        """A source whose next active read is the plan's ``sample``."""
        return SignalSource(
            profile if profile is not None else SignalProfile(),
            self.generator(self.starts[sample]),
        )

    def first(self, predicate, start=0):
        return next(i for i in range(start, len(self.slow)) if predicate(i))


@pytest.fixture(scope="module")
def plan():
    return StreamPlan(seed=11, n=20_000)


def assert_block_matches_scalar(fast, ref, times, duration=float("inf")):
    """read_block_at equals the scalar reads bit for bit, state included."""
    fast.begin_use(float(times[0]), duration)
    ref.begin_use(float(times[0]), duration)
    expected = np.array([ref.read(t) for t in times], dtype=float)
    got = fast.read_block_at(times)
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert fast.capture() == ref.capture()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    burst_probability=st.one_of(
        st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)
    ),
    burst_mean=st.floats(1e-3, 10.0),
    burst_sd=st.one_of(st.just(0.0), st.floats(0.0, 5.0), st.just(1e3)),
    noise_sd=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    start=st.floats(0.0, 7200.0),
    n=st.integers(1, 600),
    duration=st.one_of(st.just(float("inf")), st.floats(0.0, 70.0)),
)
def test_block_read_equals_scalar_reads(
    seed, burst_probability, burst_mean, burst_sd, noise_sd, start, n, duration
):
    # burst_sd 1e3 makes about half the bursts clamp to 0.
    profile = SignalProfile(burst_probability, burst_mean, burst_sd, noise_sd)
    fast = SignalSource(profile, np.random.default_rng(seed))
    ref = SignalSource(profile, np.random.default_rng(seed))
    times = sample_clock(start, 0.1, n)
    assert_block_matches_scalar(fast, ref, times, duration)
    assert (fast.active, fast.active_until) == (ref.active, ref.active_until)


class TestSlowWords:
    """Block reads across normals that leave the one-word fast path."""

    def check(self, plan, sample, n, profile=None):
        fast = plan.source_at(sample, profile)
        ref = plan.source_at(sample, profile)
        assert_block_matches_scalar(fast, ref, np.arange(n) / 10.0)

    def test_index_one_word_is_never_fast(self, plan):
        assert KI[1] == 0
        i = plan.first(lambda i: plan.words[plan.starts[i] + 1] & 255 == 1)
        assert plan.slow[i]
        self.check(plan, max(0, i - 5), 20)

    def test_slow_word_ends_a_chunk(self, plan):
        i = plan.first(lambda i: plan.slow[i], start=127)
        self.check(plan, i - 127, 128)
        self.check(plan, i - 127, 200)

    def test_slow_word_starts_second_chunk(self, plan):
        i = plan.first(lambda i: plan.slow[i], start=128)
        self.check(plan, i - 128, 129)

    def test_two_slow_words_in_a_row(self, plan):
        i = plan.first(lambda i: plan.slow[i] and plan.slow[i + 1])
        self.check(plan, max(0, i - 3), 10)

    def test_burst_always_on_slow_words(self, plan):
        i = plan.first(lambda i: plan.slow[i])
        self.check(plan, i, 50, SignalProfile(burst_probability=1.0))

    @pytest.mark.parametrize("n", [127, 128, 129, 256, 257])
    def test_chunk_boundaries(self, plan, n):
        self.check(plan, 0, n)

    def test_long_read_trace(self):
        fast, ref = twin_sources(SignalProfile(burst_probability=0.5))
        fast.begin_use(0.0)
        ref.begin_use(0.0)
        times = np.arange(4000) / 10.0
        expected = np.array([ref.read(t) for t in times])
        got = fast.read_trace(0.0, 4000, 10.0)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        assert fast.capture() == ref.capture()

    def test_buffered_half_word_survives_rewind(self, plan):
        # A generator holding a buffered 32-bit half: the slow-word
        # rewind must hand it back untouched, as the scalar reads do.
        i = plan.first(lambda i: plan.slow[i], start=3)
        fast = plan.source_at(i - 3)
        ref = plan.source_at(i - 3)
        for src in (fast, ref):
            state = src._rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0xDEADBEEF
            src._rng.bit_generator.state = state
        assert_block_matches_scalar(fast, ref, np.arange(10) / 10.0)
        assert fast.capture()[0]["uinteger"] == 0xDEADBEEF
