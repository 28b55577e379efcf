"""Unit tests for table / curve rendering."""

import pytest

from repro.evalx import tables
from repro.evalx.tables import ascii_curve, format_table


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["A", "Long header"], [["x", "1"], ["yyyy", "2"]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1
        data_lines = [line for line in lines if "|" in line]
        assert len({line.index("|") for line in data_lines}) == 1

    def test_title_prepended(self):
        text = format_table(["A"], [["x"]], title="Table 9")
        assert text.splitlines()[0] == "Table 9"

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["A", "B"], [["only-one"]])

    def test_cells_stringified(self):
        text = format_table(["n"], [[42]])
        assert "42" in text


class TestAsciiCurve:
    @pytest.fixture
    def small(self, monkeypatch):
        """A five-row plot."""
        monkeypatch.setattr(tables, "CURVE_HEIGHT", 5)

    def test_contains_marks_and_axis(self, small):
        text = ascii_curve([0.1, 0.5, 0.9])
        assert "*" in text
        assert "iterations 1..3" in text

    def test_rising_curve_marks_rise(self, small):
        text = ascii_curve([0.0, 1.0])
        lines = [line for line in text.splitlines() if "|" in line]
        top_row = lines[0]
        bottom_row = lines[-1]
        assert "*" in top_row  # the 1.0 point
        assert "*" in bottom_row  # the 0.0 point

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_curve([])

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ascii_curve([0.5], y_min=1.0, y_max=0.0)

    def test_long_series_compressed(self, monkeypatch):
        monkeypatch.setattr(tables, "CURVE_WIDTH", 40)
        text = ascii_curve([0.5] * 1000)
        assert "iterations 1..1000" in text
