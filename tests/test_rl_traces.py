"""Unit tests for eligibility traces."""

import pytest

from repro.rl.dense import DenseTraces


class TestVisit:
    def test_replacing_sets_to_one(self):
        traces = DenseTraces()
        traces.visit("s", "a")
        traces.visit("s", "a")
        assert traces.get("s", "a") == 1.0

    def test_unvisited_is_zero(self):
        assert DenseTraces().get("s", "a") == 0.0


class TestDecay:
    def test_decay_multiplies(self):
        traces = DenseTraces()
        traces.visit("s", "a")
        traces.decay(0.5)
        assert traces.get("s", "a") == 0.5

    def test_tiny_traces_dropped(self):
        traces = DenseTraces(cutoff=1e-2)
        traces.visit("s", "a")
        for _ in range(10):
            traces.decay(0.5)
        assert len(traces) == 0

    def test_decay_zero_clears(self):
        traces = DenseTraces()
        traces.visit("s", "a")
        traces.visit("t", "b")
        traces.decay(0.0)
        assert len(traces) == 0


class TestResetItems:
    def test_reset(self):
        traces = DenseTraces()
        traces.visit("s", "a")
        traces.reset()
        assert len(traces) == 0

    def test_items_snapshot_allows_q_updates(self):
        traces = DenseTraces()
        traces.visit("s", "a")
        traces.visit("t", "b")
        seen = [key for key, _ in traces.items()]
        assert set(seen) == {("s", "a"), ("t", "b")}

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            DenseTraces(cutoff=-1.0)
