"""Unit tests for the tabular Q function."""

import pytest

from repro.rl.dense import DenseQTable


class TestValues:
    def test_default_initial_value(self):
        q = DenseQTable(initial_value=5.0)
        assert q.value("s", "a") == 5.0

    def test_set_and_get(self):
        q = DenseQTable()
        q.set("s", "a", 3.5)
        assert q.value("s", "a") == 3.5

    def test_add_accumulates_from_initial(self):
        q = DenseQTable(initial_value=10.0)
        q.add("s", "a", 2.0)
        q.add("s", "a", 3.0)
        assert q.value("s", "a") == 15.0

    def test_len_counts_written_pairs(self):
        q = DenseQTable()
        q.set("s", "a", 1.0)
        q.set("s", "b", 1.0)
        q.set("s", "a", 2.0)
        assert len(q) == 2


class TestArgmax:
    def test_best_action(self):
        q = DenseQTable()
        q.set("s", "a", 1.0)
        q.set("s", "b", 3.0)
        assert q.best_action("s", ["a", "b"]) == "b"

    def test_tie_break_by_repr_is_deterministic(self):
        q = DenseQTable()
        assert q.best_action("s", ["zeta", "alpha", "mid"]) == "alpha"

    def test_empty_actions_raises(self):
        with pytest.raises(ValueError):
            DenseQTable().best_action("s", [])
        with pytest.raises(ValueError):
            DenseQTable().max_value("s", [])

    def test_max_value(self):
        q = DenseQTable()
        q.set("s", "a", -1.0)
        q.set("s", "b", 2.0)
        assert q.max_value("s", ["a", "b"]) == 2.0

    def test_greedy_policy_over_states(self):
        q = DenseQTable()
        q.set("s1", "a", 1.0)
        q.set("s2", "b", 1.0)
        policy = {s: q.best_action(s, ["a", "b"]) for s in ("s1", "s2")}
        assert policy == {"s1": "a", "s2": "b"}


class TestCopyDiff:
    def test_copy_is_independent(self):
        q = DenseQTable()
        q.set("s", "a", 1.0)
        clone = q.copy()
        clone.set("s", "a", 9.0)
        assert q.value("s", "a") == 1.0

    def test_max_abs_difference(self):
        a = DenseQTable()
        b = DenseQTable()
        a.set("s", "x", 1.0)
        b.set("s", "x", 4.0)
        b.set("t", "y", 0.5)
        assert a.max_abs_difference(b) == 3.0

    def test_difference_of_empty_tables_is_zero(self):
        assert DenseQTable().max_abs_difference(DenseQTable()) == 0.0

    def test_known_pairs(self):
        q = DenseQTable()
        q.set("s", "a", 1.0)
        assert q.known_pairs() == [("s", "a")]
