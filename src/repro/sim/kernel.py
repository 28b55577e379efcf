"""The discrete-event scheduler at the heart of the simulation.

Time is a ``float`` in seconds.  Events scheduled for the same instant
fire in insertion order (a monotonically increasing sequence number
breaks ties), which keeps every run bit-for-bit deterministic for a
given seed.

The queue is a calendar queue (bucketed timing wheel): events hash
into fixed-width time buckets held in an unsorted list each, with a
small integer heap tracking which buckets are populated.  A bucket is
sorted once, when it becomes current.  Pushes are O(1) appends with
**no per-event comparisons** (a binary heap of events pays O(log n)
Python comparisons per push), which is what makes it fast on the
periodic 10 Hz traffic that dominates node workloads.

The ``(time, seq)`` order fully determines a simulation, so the queue
must replay any schedule exactly as a plain ``heapq`` of ``(time,
seq)`` keys would; the queue-equivalence tests prove that against the
heap oracle in ``tests/oracles/kernel.py``, across bucket widths (see
``docs/architecture.md``).

The kernel also recycles :class:`Event` objects: callers that own a
recurring timeout (firmware sampling loops, process resumes) schedule
with ``reusable=True`` and the kernel returns the fired event to a
free list instead of leaving tens of thousands of dead objects per
experiment to the allocator.  See :meth:`Simulator.schedule` for the
ownership contract.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from math import floor
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Event",
    "Signal",
    "Simulator",
    "SimulationError",
]

#: Calendar bucket width in simulated seconds, tuned for the 10 Hz
#: sampling traffic: node block events seconds apart plus millisecond
#: radio offsets.  It changes speed only, never the event order.
BUCKET_WIDTH = 0.5


class SimulationError(RuntimeError):
    """Raised when the kernel is used inconsistently.

    Examples: running a simulator backwards, or scheduling with a
    negative delay or at a time already in the past.
    """


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Events are ordered by ``(time, seq)``; ``seq`` is assigned by the
    simulator so that simultaneous events keep FIFO order.  An event
    can be cancelled before it fires, in which case the kernel skips
    it (the queue entry is left in place and discarded lazily, and a
    bucket is compacted eagerly when most of it is cancelled).

    ``__slots__`` (via ``slots=True``) matters here: the simulation
    allocates one ``Event`` per kernel event, and the sensing fast
    path still schedules tens of thousands of them per experiment --
    which is also why ``reusable`` events are recycled through the
    simulator's free list instead of reallocated.
    """

    time: float
    seq: int
    callback: Optional[Callable[[], None]] = field(compare=False, default=None)
    cancelled: bool = field(default=False, compare=False)
    #: True while the event sits in the queue (set by the kernel;
    #: lets ``cancel`` notify the queue exactly once).
    queued: bool = field(default=False, compare=False)
    #: True when the scheduling site owns the handle and promises not
    #: to touch it after it fires or after cancelling it -- the kernel
    #: then recycles the object through the free list.
    reusable: bool = field(default=False, compare=False)
    #: The queue currently holding the event (kernel-managed).
    owner: Optional[Any] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Prevent this event from firing.

        Cancelling an already-fired or already-cancelled event is a
        harmless no-op, which lets timeout logic stay simple.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.queued and self.owner is not None:
            self.owner.note_cancel(self)


#: C-level sort key for bucket ordering -- sorting with it costs zero
#: Python ``__lt__`` calls, unlike ``heapq`` on ``Event`` objects.
_TIME_SEQ = attrgetter("time", "seq")

#: Free-list high-water mark.  Recurring timeouts cycle through a
#: handful of events; the cap only bounds pathological cancel storms.
_FREE_LIST_CAP = 1024


def _release(free: List[Event], event: Event) -> None:
    """Return a dead ``reusable`` event to the free list."""
    if len(free) < _FREE_LIST_CAP:
        event.callback = None
        event.cancelled = False
        event.owner = None
        free.append(event)


class _CalendarQueue:
    """The event queue: fixed-width time buckets.

    ``_buckets`` maps bucket key (``floor(time / width)``) to an
    *unsorted* list of events; ``_keys`` is an integer min-heap of the
    populated keys (small: many events share a bucket, and integer
    comparisons run in C).  When a bucket becomes *current* it is
    popped from the table, sorted once by ``(time, seq)`` with a
    C-level key, and drained in order through a cursor.  Events
    scheduled into the current bucket mid-drain are insorted into the
    undrained tail; events scheduled before the current bucket (only
    possible after ``run_until`` parked the clock beyond a drained
    range) park the tail back into the table and re-select.

    Cancelled events are skipped lazily at the cursor; a parked bucket
    whose cancelled fraction grows past half (with at least
    ``_COMPACT_MIN`` casualties) is compacted eagerly so cancel-heavy
    workloads don't drag dead weight into the sort.
    """

    __slots__ = ("_width", "_inv", "_buckets", "_keys", "_stale",
                 "_cur", "_cur_key", "_pos", "_live", "free")

    _COMPACT_MIN = 16

    def __init__(self, width: float = BUCKET_WIDTH) -> None:
        if width <= 0:
            raise SimulationError(f"bucket width must be positive, got {width}")
        self._width = float(width)
        self._inv = 1.0 / float(width)
        self._buckets: Dict[int, List[Event]] = {}
        self._keys: List[int] = []
        self._stale: Dict[int, int] = {}
        self._cur: Optional[List[Event]] = None
        self._cur_key = 0
        self._pos = 0
        self._live = 0
        self.free: List[Event] = []

    def push(self, event: Event) -> None:
        event.queued = True
        event.owner = self
        self._live += 1
        # floor, not int(): truncation would fold negative times into
        # bucket 0 and break the bucket-start horizon guard.
        key = floor(event.time * self._inv)
        cur = self._cur
        if cur is not None:
            cur_key = self._cur_key
            if key == cur_key:
                # Into the bucket being drained: keep the undrained
                # tail ordered.  Same-time events get the larger seq,
                # so right-insort preserves FIFO.
                insort(cur, event, lo=self._pos, key=_TIME_SEQ)
                return
            if key < cur_key:
                # Earlier than the current bucket (the clock was
                # parked past a drained range): park the tail and
                # re-select from the table at the next pop.
                tail = cur[self._pos:]
                if tail:
                    self._buckets[cur_key] = tail
                    heapq.heappush(self._keys, cur_key)
                self._cur = None
                self._pos = 0
        buckets = self._buckets
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [event]
            heapq.heappush(self._keys, key)
        else:
            bucket.append(event)

    def note_cancel(self, event: Event) -> None:
        """Track cancellations; compact a mostly-dead parked bucket."""
        self._live -= 1
        key = floor(event.time * self._inv)
        if self._cur is not None and key == self._cur_key:
            return  # the cursor skips it in O(1) moments from now
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        stale = self._stale.get(key, 0) + 1
        if stale >= self._COMPACT_MIN and stale * 2 >= len(bucket):
            survivors = [e for e in bucket if not e.cancelled]
            self._buckets[key] = survivors
            free = self.free
            for dead in bucket:
                if dead.cancelled:
                    dead.queued = False
                    if dead.reusable:
                        _release(free, dead)
            self._stale.pop(key, None)
        else:
            self._stale[key] = stale

    def _activate_next(self) -> bool:
        """Sort the earliest populated bucket into the cursor."""
        keys = self._keys
        if not keys:
            return False
        key = heapq.heappop(keys)
        bucket = self._buckets.pop(key)
        self._stale.pop(key, None)
        bucket.sort(key=_TIME_SEQ)
        self._cur = bucket
        self._cur_key = key
        self._pos = 0
        return True

    def pop_due(self, horizon: float) -> Optional[Event]:
        free = self.free
        while True:
            cur = self._cur
            if cur is not None:
                pos = self._pos
                n = len(cur)
                while pos < n:
                    event = cur[pos]
                    if event.cancelled:
                        pos += 1
                        event.queued = False
                        if event.reusable:
                            _release(free, event)
                        continue
                    if event.time > horizon:
                        self._pos = pos
                        return None
                    self._pos = pos + 1
                    event.queued = False
                    self._live -= 1
                    return event
                self._cur = None
                self._pos = 0
            keys = self._keys
            if not keys:
                return None
            if keys[0] * self._width > horizon:
                # Every event in every remaining bucket starts past
                # the horizon; don't even sort them yet.
                return None
            self._activate_next()

    def peek_time(self) -> Optional[float]:
        free = self.free
        while True:
            cur = self._cur
            if cur is not None:
                pos = self._pos
                n = len(cur)
                while pos < n:
                    event = cur[pos]
                    if event.cancelled:
                        pos += 1
                        event.queued = False
                        if event.reusable:
                            _release(free, event)
                        continue
                    self._pos = pos
                    return event.time
                self._cur = None
                self._pos = 0
            if not self._activate_next():
                return None

    @property
    def live(self) -> int:
        return self._live


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
        self._queue = _CalendarQueue()
        self._now = float(start_time)
        self._seq = itertools.count()
        self._event_count = 0
        self._free: List[Event] = self._queue.free

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
        """Live (not lazily-cancelled) events awaiting their turn.

        Cancelled events may linger inside the queue until the cursor
        reaches them; they are *not* counted here, so introspection
        reflects what will actually fire.
        """
        return self._queue.live

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        reusable: bool = False,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``reusable=True`` is a contract, not a hint: the caller owns
        the returned handle and promises never to touch it after the
        event has fired (or after the caller cancelled it).  The
        kernel then recycles the ``Event`` object through a free list,
        so a firmware loop scheduling ten timeouts a second allocates
        one event total instead of tens of thousands per experiment.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, reusable=reusable)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        reusable: bool = False,
    ) -> Event:
        """Schedule ``callback`` at an absolute simulated time.

        Scheduling before :attr:`now` raises :class:`SimulationError`
        -- a backdated event could never fire in order, so catching it
        at the call site beats a silently corrupted timeline.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        free = self._free
        if free:
            event = free.pop()
            event.time = float(time)
            event.seq = next(self._seq)
            event.callback = callback
            event.cancelled = False
            event.reusable = reusable
        else:
            event = Event(
                time=float(time),
                seq=next(self._seq),
                callback=callback,
                reusable=reusable,
            )
        self._queue.push(event)
        return event

    def peek(self) -> Optional[float]:
        """Return the time of the next pending event, or ``None``."""
        return self._queue.peek_time()

    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` if none remain."""
        event = self._queue.pop_due(float("inf"))
        if event is None:
            return False
        callback = event.callback
        self._now = event.time
        self._event_count += 1
        if event.reusable:
            _release(self._free, event)
        callback()
        return True

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
        if horizon < self._now:
            raise SimulationError(
                f"horizon t={horizon} is before current time t={self._now}"
            )
        # Fused loop: one queue walk decides, pops and fires each
        # event (peek()+step() would walk cancelled runs twice --
        # measurable at sensing event rates).
        queue = self._queue
        pop_due = queue.pop_due
        free = self._free
        fired = 0
        while True:
            event = pop_due(horizon)
            if event is None:
                break
            callback = event.callback
            self._now = event.time
            self._event_count += 1
            if event.reusable:
                _release(free, event)
            callback()
            fired += 1
        self._now = float(horizon)
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self._now:.3f}, pending={self.pending_count})"
        )
