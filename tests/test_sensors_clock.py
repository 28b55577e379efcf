"""Unit tests for the drifting real-time clock."""

import pytest

from repro.sensors.clock import RealTimeClock


class TestDrift:
    def test_zero_drift_tracks_wall_time(self):
        clock = RealTimeClock(drift_ppm=0.0)
        assert clock.local_time(1000.0) == 1000.0

    def test_positive_drift_runs_fast(self):
        clock = RealTimeClock(drift_ppm=100.0)
        assert clock.local_time(10_000.0) == pytest.approx(10_001.0)
        assert clock.skew_at(10_000.0) == pytest.approx(1.0)

    def test_skew_grows_linearly(self):
        clock = RealTimeClock(drift_ppm=50.0)
        assert clock.skew_at(2000.0) == pytest.approx(2 * clock.skew_at(1000.0))

    def test_monotonic(self):
        clock = RealTimeClock(drift_ppm=20.0)
        times = [clock.local_time(t) for t in range(0, 1000, 10)]
        assert all(a < b for a, b in zip(times, times[1:]))
