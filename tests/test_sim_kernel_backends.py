"""Queue equivalence: the calendar queue vs the reference heap.

The calendar queue is a speed profile, not a semantics profile: any
workload -- including randomized schedule/cancel storms, same-instant
bursts and mid-drain pushes -- must replay event-for-event identically
to the binary heap oracle (``tests/oracles/kernel.py``).  These tests
drive both through identical operation scripts (seeded via
:mod:`repro.sim.random`) and compare the fired sequences exactly, then
gate the full Figure 1 scenario.
"""

from __future__ import annotations

import pytest

from oracles.kernel import HeapSimulator, calendar_simulator, heap_recorder
from repro.evalx.scenario import run_tea_scenario
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.random import seeded_generator

#: Kernel factories by name: ``factory(start_time) -> Simulator``.
KERNELS = {"heap": HeapSimulator, "calendar": Simulator}
BACKENDS = ["heap", "calendar"]

#: Deliberately collision-heavy delay grid: repeated values force
#: same-instant ties, 0.0 forces same-instant pushes mid-drain, and
#: the spread crosses bucket boundaries at every tested width.
DELAY_GRID = (0.0, 0.05, 0.1, 0.25, 0.5, 0.5, 1.0, 2.5)


def generate_ops(seed: int, count: int = 400):
    """One operation script: (kind, argument) tuples."""
    rng = seeded_generator(seed)
    ops = []
    for _ in range(count):
        roll = float(rng.random())
        if roll < 0.55:
            ops.append(("schedule", int(rng.integers(len(DELAY_GRID)))))
        elif roll < 0.85:
            ops.append(("cancel", int(rng.integers(1 << 30))))
        else:
            ops.append(("run", float(rng.uniform(0.0, 2.0))))
    return ops


def replay(sim: Simulator, ops):
    """Apply one operation script to a fresh kernel; return the fires.

    Scheduled callbacks record ``(now, label)`` and some spawn
    children (same-instant and cross-bucket), so the script exercises
    pushes *during* a bucket drain, not just between runs.
    """
    fired = []
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
        elif kind == "run":
            sim.run_until(sim.now + arg)
    sim.run()
    return fired


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_fired_sequences_identical(self, seed):
        ops = generate_ops(seed)
        reference = replay(HeapSimulator(), ops)
        assert replay(Simulator(), ops) == reference
        assert len(reference) > 100  # the script actually fires things

    @pytest.mark.parametrize("width", [0.05, 0.3, 1.0, 10.0])
    def test_bucket_width_never_changes_the_replay(self, width):
        ops = generate_ops(99)
        reference = replay(HeapSimulator(), ops)
        assert replay(calendar_simulator(width), ops) == reference


class TestSameInstantSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_push_during_drain_fires_after_earlier_ties(self, backend):
        sim = KERNELS[backend]()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("child"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "child"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_delay_chain_advances_within_one_instant(self, backend):
        sim = KERNELS[backend]()
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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pending_count_excludes_cancelled(self, backend):
        sim = KERNELS[backend]()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_count == 10
        for event in events[::2]:
            event.cancel()
        assert sim.pending_count == 5
        events[1].cancel()
        assert sim.pending_count == 4
        sim.run()
        assert sim.pending_count == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cancel_storm_in_one_bucket(self, backend):
        # With 100 s buckets every event lands in one bucket, so the
        # calendar's eager compaction must fire repeatedly while
        # survivors keep their relative order.
        sim = (
            HeapSimulator() if backend == "heap" else calendar_simulator(100.0)
        )
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cancel_after_fire_is_harmless(self, backend):
        sim = KERNELS[backend]()
        fired = []
        first = sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until(1.5)
        first.cancel()  # already fired; must not disturb the queue
        sim.run()
        assert fired == ["a", "b"]


class TestEventReuse:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fired_reusable_event_is_recycled(self, backend):
        sim = KERNELS[backend]()
        seen = []
        first = sim.schedule(1.0, lambda: seen.append(1), reusable=True)
        sim.run()
        second = sim.schedule(1.0, lambda: seen.append(2), reusable=True)
        assert second is first  # the free list recycled the object
        sim.run()
        assert seen == [1, 2]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cancelled_reusable_event_is_recycled(self, backend):
        sim = KERNELS[backend]()
        event = sim.schedule(1.0, lambda: None, reusable=True)
        event.cancel()
        sim.run()  # lazy removal releases the carcass
        recycled = sim.schedule(1.0, lambda: None, reusable=True)
        assert recycled is event
        assert not recycled.cancelled  # fields reset on reuse

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reschedule_inside_callback_reuses_one_object(self, backend):
        # The recurring-timeout shape (firmware loops, Process
        # timeouts): recycle-before-callback means the immediate
        # reschedule gets the same object back every period.
        sim = KERNELS[backend]()
        fired = []
        identities = set()

        def tick():
            fired.append(sim.now)
            if len(fired) < 50:
                identities.add(id(sim.schedule(1.0, tick, reusable=True)))

        identities.add(id(sim.schedule(1.0, tick, reusable=True)))
        sim.run()
        assert len(fired) == 50
        assert len(identities) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_plain_events_are_not_recycled(self, backend):
        sim = KERNELS[backend]()
        first = sim.schedule(1.0, lambda: None)
        sim.run()
        second = sim.schedule(1.0, lambda: None)
        assert second is not first


class TestClockEdges:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_negative_start_time(self, backend):
        # Bucket keys use floor(), not int() truncation: negative
        # times must still map to the bucket *below*, or the
        # far-future guard would skip due events.
        sim = KERNELS[backend](-3.7)
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.schedule_at(-1.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [-3.7 + 0.5, -1.0]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_until_across_negative_boundary(self, backend):
        sim = KERNELS[backend](-2.0)
        fired = []
        for delay in (0.5, 1.5, 2.5, 3.5):
            sim.schedule(delay, (lambda d=delay: fired.append(d)))
        sim.run_until(0.0)
        assert fired == [0.5, 1.5]
        sim.run_until(2.0)
        assert fired == [0.5, 1.5, 2.5, 3.5]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_schedule_at_past_raises(self, backend):
        sim = KERNELS[backend]()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError) as excinfo:
            sim.schedule_at(4.0, lambda: None)
        assert "before current time" in str(excinfo.value)
        assert "4.0" in str(excinfo.value)


class TestScenarioBackendEquivalence:
    """The tier-1 gate: the full Figure 1 scenario, heap vs calendar,
    identical timelines."""

    def test_identical_timelines(self, monkeypatch):
        calendar = run_tea_scenario()
        built = []
        monkeypatch.setattr(
            "repro.core.system.Simulator", heap_recorder(built)
        )
        heap = run_tea_scenario()
        assert built  # the scenario really ran on the heap oracle
        assert calendar.timeline == heap.timeline
        assert calendar.completed == heap.completed
        for field in (
            "wrong_tool_prompt_time",
            "first_praise_time",
            "stall_prompt_time",
            "second_praise_time",
        ):
            assert getattr(calendar, field) == getattr(heap, field), field
