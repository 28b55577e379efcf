"""Unit tests for the usage history store."""

import pytest

from repro.sensing.history import UsageHistory


class TestAppend:
    def test_records_in_order(self):
        history = UsageHistory()
        history.append(1.0, 3)
        history.append(2.0, 4)
        assert [(r.time, r.tool_id) for r in history.records()] == [
            (1.0, 3),
            (2.0, 4),
        ]
        assert len(history) == 2

    def test_out_of_order_rejected(self):
        history = UsageHistory()
        history.append(5.0, 1)
        with pytest.raises(ValueError):
            history.append(4.0, 1)

    def test_of_tool_filters(self):
        history = UsageHistory()
        for time, tool in [(1, 1), (2, 2), (3, 1)]:
            history.append(time, tool)
        assert len(history.of_tool(1)) == 2
        assert history.of_tool(9) == []


class TestDwellStats:
    def test_single_run_durations(self):
        history = UsageHistory()
        # Tool 1 from t=0 to t=10 (handover to tool 2), tool 2 from 10
        # to 16, tool 3 never hands over.
        history.append(0.0, 1)
        history.append(4.0, 1)
        history.append(10.0, 2)
        history.append(16.0, 3)
        stats = history.dwell_stats()
        assert stats[1].mean == pytest.approx(10.0)
        assert stats[2].mean == pytest.approx(6.0)
        assert 3 not in stats

    def test_multiple_runs_mean_and_sd(self):
        history = UsageHistory()
        # Two runs of tool 1: dwell 10 and 14.
        points = [(0.0, 1), (10.0, 2), (12.0, 1), (26.0, 2)]
        for time, tool in points:
            history.append(time, tool)
        stats = history.dwell_stats()
        assert stats[1].count == 2
        assert stats[1].mean == pytest.approx(12.0)
        assert stats[1].sd == pytest.approx(2.8284, rel=1e-3)

    def test_timeout_formula(self):
        history = UsageHistory()
        points = [(0.0, 1), (10.0, 2), (12.0, 1), (26.0, 2)]
        for time, tool in points:
            history.append(time, tool)
        stats = history.dwell_stats()[1]
        assert stats.timeout(3.0) == pytest.approx(12.0 + 3.0 * stats.sd)

