"""Unit tests for the statistics helpers."""

import math

import pytest

from repro.core.metrics import mean, proportion, sample_sd


class TestProportion:
    def test_basic(self):
        assert proportion(3, 4) == 0.75

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            proportion(0, 0)

    def test_successes_bounds(self):
        with pytest.raises(ValueError):
            proportion(5, 4)
        with pytest.raises(ValueError):
            proportion(-1, 4)


class TestMeanSd:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    def test_sample_sd(self):
        assert sample_sd([2.0, 4.0]) == pytest.approx(math.sqrt(2))

    def test_sample_sd_single_value(self):
        assert sample_sd([5.0]) == 0.0

