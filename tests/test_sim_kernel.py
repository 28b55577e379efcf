"""Unit tests for the discrete-event kernel.

The kernel is a plain ``heapq`` of ``(time, seq)`` keys.  Besides the
unit tests, randomized schedule/cancel/reschedule scripts replay on it
and on a brute-force reference written here (:class:`ScanKernel`),
which must fire exactly the same sequence; a reschedule must also
match ``cancel`` + ``schedule_at`` on the kernel itself.
"""

import math

import pytest

from repro.core.config import CoReDAConfig
from repro.core.config_io import config_from_dict
from repro.sim.kernel import Event, Signal, SimulationError, Simulator
from repro.sim.random import seeded_generator

#: Retired ``sim.kernel_backend`` values that saved configurations may
#: still carry.  Loading drops the key, so either name must get this
#: one heap kernel; the core kernel tests run once per legacy name.
LEGACY_BACKENDS = ("calendar", "heap")


@pytest.fixture(params=LEGACY_BACKENDS)
def kernel(request):
    """Kernel factory ``start_time -> Simulator`` for a deployment whose
    saved configuration names the retired backend ``request.param``."""
    legacy = config_from_dict({"sim": {"kernel_backend": request.param}})
    assert legacy == CoReDAConfig()
    return Simulator


@pytest.fixture
def sim(kernel) -> Simulator:
    """Override the shared fixture: one case per legacy backend name."""
    return kernel()


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

    def test_ten_thousand_chained_events_all_fire(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.1, tick)

        sim.schedule(0.1, tick)
        sim.run()
        assert count[0] == 10_000


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
    """run_until must discard cancelled heap runs lazily."""

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


class TestNonFiniteTimes:
    def test_schedule_nan_delay_rejected(self, sim):
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule(float("nan"), lambda: None)

    def test_schedule_at_infinity_rejected(self, sim):
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule_at(math.inf, lambda: None)

    def test_run_until_nan_rejected(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule_at(1e6, lambda: fired.append(2))
        with pytest.raises(SimulationError):
            sim.run_until(float("nan"))
        assert fired == []
        assert sim.now == 0.0
        assert sim.pending_count == 2


class TestSameInstantSemantics:
    def test_push_during_drain_fires_after_earlier_ties(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("child"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "child"]

    def test_zero_delay_chain_advances_within_one_instant(self):
        sim = Simulator()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 5:
                sim.schedule(0.0, lambda: chain(depth + 1))

        sim.schedule(2.0, lambda: chain(0))
        sim.run()
        assert fired == list(range(6))
        assert sim.now == 2.0


class TestCancellationAccounting:
    def test_pending_count_excludes_cancelled(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_count == 10
        for event in events[::2]:
            event.cancel()
        assert sim.pending_count == 5
        events[1].cancel()
        assert sim.pending_count == 4
        sim.run()
        assert sim.pending_count == 0

    def test_cancel_storm(self, sim):
        # Survivors keep their relative order however many cancelled
        # entries sit between them in the heap.
        fired = []
        events = [
            sim.schedule(1.0 + i * 0.01, (lambda i=i: fired.append(i)))
            for i in range(1000)
        ]
        for i, event in enumerate(events):
            if i % 10 != 0:
                event.cancel()
        assert sim.pending_count == 100
        sim.run()
        assert fired == list(range(0, 1000, 10))

    def test_cancel_after_fire_is_harmless(self, sim):
        fired = []
        first = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until(1.5)
        first.cancel()  # already fired; must not disturb the queue
        sim.run()
        assert fired == ["a", "b"]


class TestReschedule:
    """``reschedule`` equals ``cancel`` + ``schedule_at`` on the same key."""

    def test_later_time_moves_in_place(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: fired.append("b"))
        entries = len(sim._heap)
        assert sim.reschedule(event, 3.0) is event
        assert len(sim._heap) == entries  # nothing pushed
        assert (event.time, sim.pending_count) == (3.0, 2)
        assert sim.peek() == 2.0
        assert sim.run_until(2.5) == 1
        assert sim.run() == 1
        assert fired == ["b", 3.0]
        assert sim.events_processed == 2

    def test_equal_time_fires_after_later_ties(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("moved"))
        sim.schedule(1.0, lambda: fired.append("tie"))
        sim.reschedule(event, 1.0)
        sim.run()
        assert fired == ["tie", "moved"]

    def test_earlier_time_pushes_and_fires_once(self, sim):
        fired = []
        event = sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.reschedule(event, 2.0)
        assert sim.pending_count == 1
        assert sim.run() == 1
        assert fired == [2.0]

    def test_earlier_then_later_fires_once_at_the_last_time(self, sim):
        fired = []
        event = sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.reschedule(event, 2.0)
        sim.reschedule(event, 6.0)
        assert sim.pending_count == 1
        assert sim.run() == 1
        assert fired == [6.0]

    def test_fired_event_is_queued_afresh(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run_until(1.5)
        sim.reschedule(event, 2.0)
        assert sim.run() == 1
        assert fired == [1.0, 2.0]

    def test_cancelled_event_is_revived(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(sim.now))
        event.cancel()
        sim.reschedule(event, 1.0)
        assert not event.cancelled
        assert sim.pending_count == 1
        assert sim.run() == 1
        assert fired == [1.0]

    def test_dropped_cancelled_event_is_queued_afresh(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(sim.now))
        event.cancel()
        sim.run_until(2.0)  # the cancelled entry leaves the heap
        sim.reschedule(event, 3.0)
        assert sim.run() == 1
        assert fired == [3.0]

    def test_cancelled_after_move_does_not_fire(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.reschedule(event, 4.0)
        event.cancel()
        assert sim.peek() is None
        assert sim.run() == 0

    def test_step_requeues_without_firing(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("moved"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.reschedule(event, 3.0)
        assert sim.step()
        assert (fired, sim.now, sim.events_processed) == (["b"], 2.0, 1)
        assert sim.step()
        assert not sim.step()
        assert fired == ["b", "moved"]

    def test_move_within_own_callback(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.reschedule(event, sim.now + 1.0)

        event = sim.schedule(1.0, tick)
        assert sim.run() == 3
        assert fired == [1.0, 2.0, 3.0]

    def test_past_and_non_finite_times_rejected(self, sim):
        event = sim.schedule(5.0, lambda: None)
        sim.run_until(2.0)
        for time in (1.0, math.nan, math.inf):
            with pytest.raises(SimulationError):
                sim.reschedule(event, time)
        assert (event.time, sim.pending_count) == (5.0, 1)


class TestClockEdges:
    def test_negative_start_time(self, kernel):
        sim = kernel(-3.7)
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.schedule_at(-1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [-3.7 + 0.5, -1.0]

    def test_run_until_across_negative_boundary(self, kernel):
        sim = kernel(-2.0)
        fired = []
        for delay in (0.5, 1.5, 2.5, 3.5):
            sim.schedule(delay, (lambda d=delay: fired.append(d)))
        sim.run_until(0.0)
        assert fired == [0.5, 1.5]
        sim.run_until(2.0)
        assert fired == [0.5, 1.5, 2.5, 3.5]

    def test_schedule_at_past_raises(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError) as excinfo:
            sim.schedule_at(4.0, lambda: None)
        assert "before current time" in str(excinfo.value)
        assert "4.0" in str(excinfo.value)


class ScanKernel:
    """Brute-force reference kernel: each firing is the minimum live
    ``(time, seq)`` found by a linear scan over every pending event."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._pending = []
        self._seq = 0

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time, callback):
        event = Event(time, self._seq, callback)
        self._seq += 1
        self._pending.append(event)
        return event

    def _pop_due(self, horizon):
        live = [event for event in self._pending if not event.cancelled]
        if not live:
            return None
        head = min(live, key=lambda event: (event.time, event.seq))
        if head.time > horizon:
            return None
        self._pending.remove(head)
        return head

    def run_until(self, horizon):
        fired = 0
        while (event := self._pop_due(horizon)) is not None:
            self.now = event.time
            self.events_processed += 1
            fired += 1
            event.callback()
        self.now = horizon
        return fired

    def run(self):
        return self.run_until(math.inf)


#: Deliberately collision-heavy delay grid: repeated values force
#: same-instant ties and 0.0 forces same-instant pushes mid-drain.
DELAY_GRID = (0.0, 0.05, 0.1, 0.25, 0.5, 0.5, 1.0, 2.5)


def generate_ops(seed: int, count: int = 400):
    """One operation script: (kind, argument) tuples.

    A ``reschedule`` names a handle and either a grid delay or
    ``None``: the handle's own time when that is not in the past,
    which moves it to an equal time.  Its handle may already have
    fired or been cancelled.
    """
    rng = seeded_generator(seed)
    ops = []
    for _ in range(count):
        roll = float(rng.random())
        if roll < 0.45:
            ops.append(("schedule", int(rng.integers(len(DELAY_GRID)))))
        elif roll < 0.65:
            ops.append(("cancel", int(rng.integers(1 << 30))))
        elif roll < 0.85:
            delay = int(rng.integers(len(DELAY_GRID) + 1))
            ops.append((
                "reschedule",
                (int(rng.integers(1 << 30)),
                 delay if delay < len(DELAY_GRID) else None),
            ))
        else:
            ops.append(("run", float(rng.uniform(0.0, 2.0))))
    return ops


def cancel_then_schedule(sim, event, time):
    """The reference ``reschedule``: a fresh event on the same callback."""
    event.cancel()
    return sim.schedule_at(time, event.callback)


def replay(sim, ops, move=cancel_then_schedule):
    """Apply one operation script to a fresh kernel.

    Returns the fires, each ``run_until``'s return value and the
    final ``events_processed``.  Scheduled callbacks record ``(now,
    label)`` and some spawn children (same-instant and later), so the
    script exercises pushes *during* a drain, not just between runs.
    ``move(sim, handle, time)`` performs a ``reschedule`` op and
    returns the handle to keep.
    """
    fired = []
    runs = []
    handles = []
    next_label = [0]

    def make_callback(label):
        def callback():
            fired.append((sim.now, label))
            if label % 3 == 0:
                spawn(0.0)
            if label % 7 == 0:
                spawn(0.3)
        return callback

    def spawn(delay):
        label = next_label[0]
        next_label[0] += 1
        handles.append(sim.schedule(delay, make_callback(label)))

    for kind, arg in ops:
        if kind == "schedule":
            spawn(DELAY_GRID[arg])
        elif kind == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif kind == "reschedule" and handles:
            pick, delay = arg
            index = pick % len(handles)
            time = handles[index].time
            if delay is not None or time < sim.now:
                time = sim.now + DELAY_GRID[delay or 0]
            handles[index] = move(sim, handles[index], time)
        elif kind == "run":
            runs.append(sim.run_until(sim.now + arg))
    runs.append(sim.run())
    return fired, runs, sim.events_processed


def reschedule_in_place(sim, event, time):
    return sim.reschedule(event, time)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fired_sequences_identical(self, seed):
        ops = generate_ops(seed)
        reference = replay(ScanKernel(), ops)
        assert replay(Simulator(), ops) == reference
        assert len(reference[0]) > 100  # the script actually fires things

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_reschedule_equals_cancel_then_schedule(self, seed):
        ops = generate_ops(seed)
        reference = replay(Simulator(), ops)
        assert replay(Simulator(), ops, reschedule_in_place) == reference
        assert replay(ScanKernel(), ops) == reference
