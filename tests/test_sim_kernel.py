"""Unit tests for the discrete-event kernel."""

import pytest

from oracles.kernel import HeapSimulator
from repro.sim.kernel import Signal, SimulationError, Simulator

KERNELS = {"heap": HeapSimulator, "calendar": Simulator}


@pytest.fixture(params=sorted(KERNELS))
def sim(request) -> Simulator:
    """Override the shared fixture: every kernel test runs on the
    production calendar queue and on the reference heap oracle (they
    promise identical semantics, so identical tests)."""
    return KERNELS[request.param]()


class TestScheduling:
    def test_starts_at_time_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_schedule_fires_at_delay(self, sim):
        fired = []
        sim.schedule(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_into_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self, sim):
        order = []
        for label in "abcde":
            sim.schedule(1.0, lambda label=label: order.append(label))
        sim.run()
        assert order == list("abcde")

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_twice_is_noop(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.run() == 0

    def test_peek_skips_cancelled(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.peek() == 2.0


class TestRunUntil:
    def test_run_until_stops_at_horizon(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_run_until_includes_boundary_event(self, sim):
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run_until(3.0)
        assert fired == [3]

    def test_run_until_backwards_rejected(self, sim):
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(2.0)

    def test_clock_advances_to_horizon_with_empty_queue(self, sim):
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_remaining_events_fire_later(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(3.0)
        sim.run_until(6.0)
        assert fired == [5]


class TestRunGuards:
    def test_max_events_guard(self, sim):
        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        assert sim.run(max_events=10) == 10

    def test_events_processed_counter(self, sim):
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestSignal:
    def test_fire_reaches_all_subscribers(self):
        signal = Signal("s")
        seen = []
        signal.subscribe(seen.append)
        signal.subscribe(seen.append)
        signal.fire("x")
        assert seen == ["x", "x"]

    def test_unsubscribe_stops_delivery(self):
        signal = Signal("s")
        seen = []
        unsubscribe = signal.subscribe(seen.append)
        unsubscribe()
        signal.fire("x")
        assert seen == []

    def test_unsubscribe_twice_is_noop(self):
        signal = Signal("s")
        unsubscribe = signal.subscribe(lambda _: None)
        unsubscribe()
        unsubscribe()

    def test_subscriber_added_during_fire_not_called(self):
        signal = Signal("s")
        seen = []

        def first(payload):
            seen.append("first")
            signal.subscribe(lambda p: seen.append("late"))

        signal.subscribe(first)
        signal.fire(None)
        assert seen == ["first"]

    def test_subscriber_removed_during_fire_not_called(self):
        # Regression: fire() used to iterate the live list, so a
        # subscriber unsubscribing its successor shifted the roster
        # under the loop -- the successor was skipped for the wrong
        # reason and a third subscriber could be missed entirely.
        signal = Signal("s")
        seen = []

        def second(payload):
            seen.append("second")

        def first(payload):
            seen.append("first")
            unsubscribe_second()

        signal.subscribe(first)
        unsubscribe_second = signal.subscribe(second)
        signal.subscribe(lambda p: seen.append("third"))
        signal.fire(None)
        assert seen == ["first", "third"]

    def test_self_unsubscribe_during_fire(self):
        signal = Signal("s")
        seen = []

        def once(payload):
            seen.append(payload)
            unsubscribe()

        unsubscribe = signal.subscribe(once)
        signal.fire("a")
        signal.fire("b")
        assert seen == ["a"]


class TestCancelledEventStress:
    """run_until's fused loop must discard cancelled heap runs lazily."""

    def test_dense_cancellations_fire_only_survivors(self, sim):
        fired = []
        events = [
            sim.schedule_at(t * 0.01, (lambda i=i: fired.append(i)))
            for i, t in enumerate(range(1000))
        ]
        # Cancel long alternating runs, including the heap head, so
        # the loop must skip many consecutive cancelled entries.
        for i, event in enumerate(events):
            if i % 3 != 0 or 100 <= i < 400:
                event.cancel()
        survivors = [
            i for i in range(1000) if i % 3 == 0 and not 100 <= i < 400
        ]
        count = sim.run_until(100.0)
        assert fired == survivors
        assert count == len(survivors)
        assert sim.events_processed == len(survivors)

    def test_cancel_during_run_until(self, sim):
        fired = []
        later = [
            sim.schedule_at(2.0 + i * 0.1, (lambda i=i: fired.append(i)))
            for i in range(50)
        ]

        def killer():
            for event in later[::2]:
                event.cancel()

        sim.schedule_at(1.0, killer)
        sim.run_until(10.0)
        assert fired == list(range(1, 50, 2))

    def test_horizon_boundary_with_cancelled_head(self, sim):
        fired = []
        head = sim.schedule_at(5.0, lambda: fired.append("head"))
        sim.schedule_at(5.0, lambda: fired.append("tail"))
        sim.schedule_at(6.0, lambda: fired.append("late"))
        head.cancel()
        assert sim.run_until(5.0) == 1
        assert fired == ["tail"]
        assert sim.now == 5.0
        # The 6.0 event is untouched and fires on the next segment.
        sim.run_until(6.0)
        assert fired == ["tail", "late"]

    def test_all_cancelled_advances_clock_only(self, sim):
        events = [sim.schedule_at(float(i), lambda: None) for i in range(20)]
        for event in events:
            event.cancel()
        assert sim.run_until(30.0) == 0
        assert sim.now == 30.0
        assert sim.peek() is None
