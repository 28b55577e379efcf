"""Unit tests for the trace recorder."""

import pytest

from repro.sim.tracing import TraceEntry, TraceRecorder


class TestEmit:
    def test_records_in_order(self):
        trace = TraceRecorder()
        trace.emit(1.0, "a", x=1)
        trace.emit(2.0, "b", y=2)
        assert [e.category for e in trace.entries()] == ["a", "b"]
        assert len(trace) == 2

    def test_out_of_order_rejected(self):
        trace = TraceRecorder()
        trace.emit(5.0, "a")
        with pytest.raises(ValueError):
            trace.emit(4.0, "b")

    def test_equal_times_allowed(self):
        trace = TraceRecorder()
        trace.emit(1.0, "a")
        trace.emit(1.0, "b")
        assert len(trace) == 2

    def test_disabled_recorder_drops(self):
        trace = TraceRecorder(enabled=False)
        trace.emit(1.0, "a")
        assert len(trace) == 0

    def test_payload_stored(self):
        trace = TraceRecorder()
        trace.emit(1.0, "a", tool_id=3, level="minimal")
        entry = trace.entries()[0]
        assert entry.payload == {"tool_id": 3, "level": "minimal"}


class TestQueries:
    @pytest.fixture
    def trace(self):
        trace = TraceRecorder()
        trace.emit(1.0, "reminder.prompt", tool=1)
        trace.emit(2.0, "sensing.step", step=2)
        trace.emit(3.0, "reminder.praise")
        trace.emit(4.0, "reminder.prompt", tool=3)
        return trace

    def test_prefix_filter(self, trace):
        assert trace.count("reminder") == 3
        assert trace.count("reminder.prompt") == 2

    def test_prefix_does_not_match_partial_words(self):
        trace = TraceRecorder()
        trace.emit(1.0, "reminders")
        assert trace.count("reminder") == 0

    def test_count(self, trace):
        assert trace.count("reminder.prompt") == 2
        assert trace.count("nothing") == 0


class TestListeners:
    def test_listener_called_per_entry(self):
        trace = TraceRecorder()
        seen = []
        trace.on_emit(lambda e: seen.append(e.category))
        trace.emit(1.0, "a")
        trace.emit(2.0, "b")
        assert seen == ["a", "b"]


class TestTraceEntry:
    def test_matches_exact_and_nested(self):
        entry = TraceEntry(1.0, "radio.delivered")
        assert entry.matches("radio")
        assert entry.matches("radio.delivered")
        assert not entry.matches("radio.dropped")

