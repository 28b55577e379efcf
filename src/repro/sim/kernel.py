"""The discrete-event scheduler at the heart of the simulation.

Time is a ``float`` in seconds.  Events scheduled for the same instant
fire in insertion order (a monotonically increasing sequence number
breaks ties), which keeps every run bit-for-bit deterministic for a
given seed.

The queue is a plain ``heapq`` of ``(time, seq, event)`` tuples held
by the :class:`Simulator` itself.  ``seq`` is unique, so the heap never
compares two events and the ``(time, seq)`` key fully fixes the firing
order.  Cancelling an event only flags it; the kernel drops it when it
reaches the head of the heap (see ``docs/architecture.md``).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from math import isfinite, isnan
from typing import Any, Callable, List, Optional, Tuple

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
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

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
    drift is introduced by the kernel itself).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._now = float(start_time)
        self._seq = itertools.count()
        self._event_count = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired since construction (for diagnostics)."""
        return self._event_count

    @property
    def pending_count(self) -> int:
        """Live (not cancelled) events awaiting their turn.

        Cancelled events linger in the heap until they reach its head;
        they are *not* counted here, so introspection reflects what
        will actually fire.  A diagnostic: it scans the whole heap.
        """
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Fire ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Fire ``callback`` at an absolute simulated time.

        Scheduling before :attr:`now` or at a non-finite time raises
        :class:`SimulationError` -- such an event could never fire in
        order, so catching it at the call site beats a silently
        corrupted timeline.
        """
        time = float(time)
        if not isfinite(time):
            raise SimulationError(f"cannot schedule at non-finite time t={time}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def peek(self) -> Optional[float]:
        """Return the time of the next pending event, or ``None``."""
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if not event.cancelled:
                return time
            heapq.heappop(heap)
        return None

    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` if none remain."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self._now = time
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
        if horizon < self._now:
            raise SimulationError(
                f"horizon t={horizon} is before current time t={self._now}"
            )
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                pop(heap)
                continue
            if time > horizon:
                break
            pop(heap)
            self._now = time
            self._event_count += 1
            event.callback()
            fired += 1
        self._now = float(horizon)
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending_count})"
        )
