"""The discrete-event scheduler at the heart of the simulation.

Time is a ``float`` in seconds.  Events scheduled for the same instant
fire in insertion order (a monotonically increasing sequence number
breaks ties), which keeps every run bit-for-bit deterministic for a
given seed.

The queue is a plain ``heapq`` of ``(time, seq, event)`` tuples held
by the :class:`Simulator` itself.  ``seq`` is unique, so the heap never
compares two events and the ``(time, seq)`` key fully fixes the firing
order.  Cancelling an event only flags it; the kernel drops it when it
reaches the head of the heap.  :meth:`Simulator.reschedule` moves an
event to a later key without a push: the heap entry keeps the old key,
and the kernel re-queues it under the event's own key when that stale
entry reaches the head (see ``docs/architecture.md``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from math import isfinite, isnan
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Event",
    "Signal",
    "Simulator",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised when the kernel is used inconsistently.

    Examples: running a simulator backwards, scheduling with a
    negative delay, at a time already in the past or at a non-finite
    time.
    """


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Events are ordered by ``(time, seq)``; ``seq`` is assigned by the
    simulator so that simultaneous events keep FIFO order.  An event
    can be cancelled before it fires, in which case the kernel skips
    it (the heap entry is left in place and discarded lazily).

    ``queued`` is the ``seq`` of the one heap entry that carries the
    event, or ``None`` once no entry does (it fired, or was dropped
    cancelled).  After :meth:`Simulator.reschedule` to a later key it
    differs from ``seq``; any other entry naming the event is stale.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    queued: Optional[int] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Prevent this event from firing.

        Cancelling an already-fired or already-cancelled event is a
        harmless no-op, which lets timeout logic stay simple.
        """
        self.cancelled = True


class Signal:
    """A broadcast channel: callbacks subscribe, ``fire`` notifies all.

    Signals decouple producers from consumers inside the simulated
    world -- e.g. the radio medium fires a signal per delivered frame
    and the base station subscribes.  One ``fire`` notifies exactly
    the subscribers registered when it began: subscribers added during
    a fire are not invoked for that same firing, and subscribers
    removed during a fire are not invoked after their removal.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._subscribers: List[Callable[[Any], None]] = []

    def subscribe(self, callback: Callable[[Any], None]) -> Callable[[], None]:
        """Register ``callback`` and return an unsubscribe function."""
        self._subscribers.append(callback)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass

        return unsubscribe

    def fire(self, payload: Any = None) -> None:
        """Invoke every subscriber registered when the fire began."""
        subscribers = self._subscribers
        if len(subscribers) == 1:
            # Fast path for the overwhelmingly common single-listener
            # signal: no snapshot, no membership scan.
            subscribers[0](payload)
            return
        for callback in list(subscribers):
            # The snapshot freezes the roster at fire time; the
            # membership check honours unsubscribes made *during*
            # this firing (by earlier subscribers in the snapshot).
            if callback in subscribers:
                callback(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, subscribers={len(self._subscribers)})"


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run_until(10.0)

    The simulator never advances past the horizon given to
    :meth:`run_until`, and :attr:`now` is exact (no floating-point
    drift is introduced by the kernel itself).  :attr:`now` is a plain
    attribute for speed; only the kernel writes it.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        #: Current simulated time in seconds.
        self.now = float(start_time)
        self._seq = itertools.count()
        self._event_count = 0
        #: Sample clocks shared by the processes of this kernel that
        #: started at the same time with the same period, keyed by
        #: ``(start, period)``; they live as long as the kernel.
        self.clock_lines: Dict[Tuple[float, float], Any] = {}

    @property
    def events_processed(self) -> int:
        """Number of events fired since construction (for diagnostics)."""
        return self._event_count

    @property
    def pending_count(self) -> int:
        """Live (not cancelled) events awaiting their turn.

        Cancelled events and stale entries linger in the heap until
        they reach its head; they are *not* counted here, so
        introspection reflects what will actually fire.  A diagnostic:
        it scans the whole heap.
        """
        return sum(
            1
            for _, seq, event in self._heap
            if seq == event.queued and not event.cancelled
        )

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Fire ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Fire ``callback`` at an absolute simulated time.

        Scheduling before :attr:`now` or at a non-finite time raises
        :class:`SimulationError` -- such an event could never fire in
        order, so catching it at the call site beats a silently
        corrupted timeline.
        """
        # The checks of _checked, inlined: this is the kernel's hottest
        # entry point.
        time = float(time)
        if not isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time t={time}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback, False, seq)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def reschedule(self, event: Event, time: float) -> Event:
        """Move ``event`` to fire at ``time`` instead; returns ``event``.

        Equivalent to ``event.cancel()`` then ``schedule_at(time,
        event.callback)``: the event takes a fresh ``seq`` now, so it
        gets the same ``(time, seq)`` key and fires in the same order.
        When ``time`` is not earlier than the key it is queued under,
        nothing is pushed: the kernel re-queues the entry when its
        stale key reaches the heap head.  A move to an earlier time
        pushes a fresh entry, as does a fired event or a cancelled one
        whose entry the kernel already dropped (a cancelled event still
        in the heap is revived on its entry).
        """
        time = self._checked(time)
        seq = next(self._seq)
        push = event.queued is None or time < event.time
        event.time = time
        event.seq = seq
        event.cancelled = False
        if push:
            event.queued = seq
            heapq.heappush(self._heap, (time, seq, event))
        return event

    def _checked(self, time: float) -> float:
        time = float(time)
        if not isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time t={time}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        return time

    def _settle(self, seq: int, event: Event) -> None:
        """Deal with a popped head entry that must not fire.

        It is either an event's carrier that was moved later (pushed
        again under the event's key), a cancelled event's carrier
        (which then has none), or an entry that a move to an earlier
        time superseded (dropped).
        """
        if seq != event.queued:
            return
        if event.cancelled:
            event.queued = None
        else:
            event.queued = event.seq
            heapq.heappush(self._heap, (event.time, event.seq, event))

    def peek(self) -> Optional[float]:
        """Return the time of the next pending event, or ``None``."""
        heap = self._heap
        while heap:
            time, seq, event = heap[0]
            if seq == event.seq and not event.cancelled:
                return time
            heapq.heappop(heap)
            self._settle(seq, event)
        return None

    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` if none remain."""
        heap = self._heap
        while heap:
            time, seq, event = heapq.heappop(heap)
            if seq != event.seq or event.cancelled:
                self._settle(seq, event)
                continue
            event.queued = None
            self.now = time
            self._event_count += 1
            event.callback()
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events processed by this call.  The
        ``max_events`` guard protects against runaway self-scheduling
        loops in tests.
        """
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        return fired

    def run_until(self, horizon: float) -> int:
        """Run all events with ``time <= horizon`` then set now=horizon.

        Returns the number of events processed.  The clock always ends
        exactly at ``horizon`` even if the queue drained earlier, so
        callers can interleave ``run_until`` segments predictably.
        """
        if isnan(horizon):
            raise SimulationError("horizon must be a number, got nan")
        if horizon < self.now:
            raise SimulationError(
                f"horizon t={horizon} is before current time t={self.now}"
            )
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        # A carrier's key is never later than its event's, so once the
        # head is past the horizon, so is every event still queued.
        while heap and heap[0][0] <= horizon:
            time, seq, event = pop(heap)
            if seq != event.seq or event.cancelled:
                self._settle(seq, event)
                continue
            event.queued = None
            self.now = time
            self._event_count += 1
            event.callback()
            fired += 1
        self.now = float(horizon)
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.3f}, pending={self.pending_count})"
        )
