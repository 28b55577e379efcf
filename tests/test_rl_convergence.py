"""Unit tests for convergence detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.convergence import ConvergenceDetector, convergence_iteration


class TestDetector:
    def test_converges_after_patience_run(self):
        detector = ConvergenceDetector(criterion=0.95, patience=3)
        results = [detector.update(a) for a in [0.5, 0.96, 0.97, 0.99]]
        assert results == [False, False, False, True]
        assert detector.converged_at == 2  # first iteration of the streak

    def test_dip_resets_streak(self):
        detector = ConvergenceDetector(criterion=0.95, patience=3)
        for accuracy in [0.96, 0.97, 0.4, 0.96, 0.96, 0.96]:
            detector.update(accuracy)
        assert detector.converged_at == 4

    def test_never_converges(self):
        detector = ConvergenceDetector(criterion=0.95, patience=2)
        for _ in range(50):
            detector.update(0.9)
        assert not detector.converged
        assert detector.converged_at is None

    def test_stays_converged_after_later_dip(self):
        detector = ConvergenceDetector(criterion=0.95, patience=2)
        for accuracy in [0.96, 0.97, 0.1]:
            detector.update(accuracy)
        assert detector.converged
        assert detector.converged_at == 1

    def test_boundary_value_counts(self):
        detector = ConvergenceDetector(criterion=0.95, patience=1)
        assert detector.update(0.95)

    def test_accuracy_bounds_enforced(self):
        detector = ConvergenceDetector()
        with pytest.raises(ValueError):
            detector.update(1.2)

    def test_history_recorded(self):
        detector = ConvergenceDetector()
        detector.update(0.3)
        detector.update(0.6)
        assert detector.history == [0.3, 0.6]

    @pytest.mark.parametrize("kwargs", [{"criterion": 0.0}, {"criterion": 1.2},
                                        {"patience": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ConvergenceDetector(**kwargs)


class TestOfflineHelper:
    def test_matches_streaming_detector(self):
        series = [0.2, 0.5, 0.96, 0.97, 0.99, 0.99]
        assert convergence_iteration(series, 0.95, patience=3) == 3

    def test_none_when_never_met(self):
        assert convergence_iteration([0.5] * 10, 0.95) is None

    def test_one_based_indexing(self):
        assert convergence_iteration([0.99], 0.95, patience=1) == 1


def _streaming(accuracies, criterion, patience):
    """``convergence_iteration`` through the streaming detector: the
    result, or the ``ValueError`` message."""
    try:
        detector = ConvergenceDetector(criterion=criterion, patience=patience)
        for accuracy in accuracies:
            detector.update(accuracy)
    except ValueError as error:
        return "error", str(error)
    return "result", detector.converged_at


def _offline(accuracies, criterion, patience):
    try:
        return "result", convergence_iteration(accuracies, criterion, patience)
    except ValueError as error:
        return "error", str(error)


# Mostly in-range values near the criteria, so streaks form; rarely a
# value outside [0, 1] (NaN and infinities included) anywhere.
_ACCURACIES = st.lists(
    st.one_of(
        st.sampled_from([0.9, 0.95, 0.97, 0.98, 1.0]),
        st.floats(0.0, 1.0),
        st.sampled_from([-0.1, 1.5, float("nan"), float("inf")]),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    accuracies=_ACCURACIES,
    criterion=st.sampled_from([0.0, 0.5, 0.95, 0.98, 1.0, 1.2]),
    patience=st.integers(0, 5),
)
def test_offline_helper_equals_the_streaming_detector(
    accuracies, criterion, patience
):
    assert _offline(accuracies, criterion, patience) == _streaming(
        accuracies, criterion, patience
    )


def test_a_bad_value_after_convergence_is_still_rejected():
    with pytest.raises(ValueError, match="got 1.5"):
        convergence_iteration([0.99, 0.99, 0.99, 0.5, 1.5], 0.95)
