"""Unit tests for the 3-of-10 usage detector."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sensors.detector import KofNDetector


def detector(**kwargs):
    defaults = dict(threshold=1.0, k=3, n=10, refractory_samples=0)
    defaults.update(kwargs)
    return KofNDetector(**defaults)


class TestRule:
    def test_detects_on_kth_exceedance_in_window(self):
        det = detector()
        assert not det.observe(2.0)
        assert not det.observe(2.0)
        assert det.observe(2.0)

    def test_no_detection_below_threshold(self):
        det = detector()
        for _ in range(50):
            assert not det.observe(0.5)

    def test_threshold_is_strict(self):
        det = detector()
        for _ in range(30):
            assert not det.observe(1.0)  # equal is not "surpass"

    def test_exceedances_must_fit_one_window(self):
        det = detector()
        # Two bursts, then enough quiet samples to push them out of
        # the 10-sample window, then two more: never 3 in a window.
        samples = [2.0, 2.0] + [0.0] * 9 + [2.0, 2.0]
        assert det.observe_trace(samples) == 0

    def test_spread_exceedances_within_window_detect(self):
        det = detector()
        samples = [2.0, 0.0, 0.0, 2.0, 0.0, 0.0, 2.0]
        assert det.observe_trace(samples) == 1

    def test_window_cleared_after_detection(self):
        det = detector()
        det.observe_trace([2.0, 2.0, 2.0])
        assert det.exceedances_in_window == 0


class TestRefractory:
    def test_refractory_suppresses_redetection(self):
        det = detector(refractory_samples=5)
        assert det.observe_trace([2.0] * 8) == 1

    def test_detection_possible_after_refractory(self):
        det = detector(refractory_samples=2)
        # 3 bursts -> detect; 2 swallowed by refractory; 3 more -> detect.
        assert det.observe_trace([2.0] * 8) == 2

    def test_counters(self):
        det = detector(refractory_samples=0)
        det.observe_trace([2.0] * 6)
        assert det.detections == 2
        assert det.samples_seen == 6


class TestValidation:
    def test_k_bounds(self):
        with pytest.raises(ValueError):
            KofNDetector(threshold=1.0, k=0, n=10)
        with pytest.raises(ValueError):
            KofNDetector(threshold=1.0, k=11, n=10)

    def test_negative_refractory(self):
        with pytest.raises(ValueError):
            KofNDetector(threshold=1.0, refractory_samples=-1)

    def test_k_equals_one(self):
        det = detector(k=1)
        assert det.observe(2.0)


class TestObserveBlock:
    """observe_block must equal per-sample observe on any split."""

    def samples(self):
        import numpy as np

        rng = np.random.default_rng(3)
        raw = rng.random(200) * 2.5  # mixes sub- and super-threshold
        return raw.tolist()

    def test_matches_scalar_observe(self):
        samples = self.samples()
        block = detector(refractory_samples=7)
        scalar = detector(refractory_samples=7)
        hits = block.observe_block(samples)
        expected = [i for i, s in enumerate(samples) if scalar.observe(s)]
        assert hits == expected
        assert block.detections == scalar.detections
        assert block.samples_seen == scalar.samples_seen
        assert block.exceedances_in_window == scalar.exceedances_in_window

    def test_matches_across_any_chunking(self):
        samples = self.samples()
        scalar = detector(refractory_samples=5)
        expected = [i for i, s in enumerate(samples) if scalar.observe(s)]
        for size in (1, 3, 10, 64):
            det = detector(refractory_samples=5)
            hits = []
            for start in range(0, len(samples), size):
                chunk = samples[start:start + size]
                hits.extend(start + h for h in det.observe_block(chunk))
            assert hits == expected, f"chunk size {size}"

    def test_detection_exactly_at_block_boundary(self):
        # Two exceedances at the end of block 1; the third arrives as
        # the first sample of block 2 and must detect at index 0.
        det = detector()
        assert det.observe_block([0.0] * 8 + [2.0, 2.0]) == []
        assert det.observe_block([2.0] + [0.0] * 9) == [0]

    def test_refractory_spans_two_blocks(self):
        det = detector(refractory_samples=15)
        first = det.observe_block([2.0] * 10)
        assert first == [2]  # k=3: third vigorous sample detects
        # 7 refractory samples consumed after the detection in block
        # 1; 8 remain, so block 2's first 8 samples are swallowed and
        # the window only then refills: detection at 8 + 2 = index 10.
        second = det.observe_block([2.0] * 12)
        assert second == [10]

    def test_empty_block(self):
        det = detector()
        assert det.observe_block([]) == []
        assert det.samples_seen == 0

    def test_silent_over_100k_sub_threshold_samples(self):
        import numpy as np

        rng = np.random.default_rng(0)
        samples = rng.random(100_000) * 0.8  # below threshold
        det = KofNDetector(threshold=1.0, k=3, n=10)
        assert det.observe_trace(samples) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n))
    ),
    st.integers(0, 25),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), max_size=150),
    st.lists(st.integers(0, 150), max_size=4),
)
def test_block_walk_equals_scalar_observe(window, refractory, samples, cuts):
    # The exceedance walk (gap runs applied at once, refractory jumps)
    # must equal per-sample observation for any rule, any refractory
    # period and any split into blocks, state included.
    n, k = window
    block = detector(k=k, n=n, refractory_samples=refractory)
    scalar = detector(k=k, n=n, refractory_samples=refractory)
    hits, start = [], 0
    for cut in sorted(min(cut, len(samples)) for cut in cuts) + [len(samples)]:
        hits.extend(start + hit for hit in block.observe_block(samples[start:cut]))
        start = cut
    assert hits == [i for i, s in enumerate(samples) if scalar.observe(s)]
    assert block.snapshot() == scalar.snapshot()


class TestSnapshotRestore:
    def test_roundtrip_replays_identically(self):
        det = detector(refractory_samples=6)
        det.observe_block([2.0, 0.0, 2.0])
        state = det.snapshot()
        tail = [2.0, 2.0, 0.0, 2.0, 2.0, 2.0, 0.0]
        first = det.observe_block(tail)
        first_state = (det.detections, det.samples_seen,
                       det.exceedances_in_window)
        det.restore(state)
        second = det.observe_block(tail)
        assert second == first
        assert (det.detections, det.samples_seen,
                det.exceedances_in_window) == first_state

    def test_restore_recovers_threshold(self):
        det = detector()
        state = det.snapshot()
        det.threshold = 99.0
        det.restore(state)
        assert det.threshold == 1.0


class TestRunningWindowCounter:
    def test_counter_tracks_evictions(self):
        det = detector(n=4, k=4)  # k=n so nothing detects here
        for sample in [2.0, 2.0, 0.0, 2.0]:
            det.observe(sample)
        assert det.exceedances_in_window == 3
        det.observe(0.0)  # evicts the first 2.0
        assert det.exceedances_in_window == 2
        det.observe(0.0)  # evicts the second 2.0
        assert det.exceedances_in_window == 1

    def test_counter_zero_after_detection_clears_window(self):
        det = detector()
        det.observe(2.0)
        det.observe(2.0)
        assert det.exceedances_in_window == 2
        assert det.observe(2.0)
        assert det.exceedances_in_window == 0
