"""The reference event queue: a ``heapq`` of ``(time, seq)`` keys.

The kernel's calendar queue must fire every schedule in exactly the
order this heap does.  :class:`HeapSimulator` is a
:class:`~repro.sim.kernel.Simulator` running on it, so any test or
scenario can replay on the reference queue.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.sim.kernel import Event, Simulator, _CalendarQueue, _release

__all__ = ["HeapQueue", "HeapSimulator", "calendar_simulator", "heap_recorder"]


class HeapQueue:
    """A binary heap of events keyed by ``(time, seq)``.

    Implements the queue interface the simulator drives (``push``,
    ``note_cancel``, ``pop_due``, ``peek_time``, ``live``, ``free``)
    with the same lazy cancellation and free-list recycling as the
    production queue.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._live = 0
        #: Shared with the owning simulator.
        self.free: List[Event] = []

    def push(self, event: Event) -> None:
        event.queued = True
        event.owner = self
        self._live += 1
        heapq.heappush(self._heap, (event.time, event.seq, event))

    def note_cancel(self, event: Event) -> None:
        self._live -= 1

    def _drop_cancelled_head(self) -> None:
        _, _, head = heapq.heappop(self._heap)
        head.queued = False
        if head.reusable:
            _release(self.free, head)

    def pop_due(self, horizon: float) -> Optional[Event]:
        """Pop the next live event with ``time <= horizon``, else None."""
        heap = self._heap
        while heap:
            head = heap[0][2]
            if head.cancelled:
                self._drop_cancelled_head()
                continue
            if head.time > horizon:
                return None
            heapq.heappop(heap)
            head.queued = False
            self._live -= 1
            return head
        return None

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap:
            head = heap[0][2]
            if not head.cancelled:
                return head.time
            self._drop_cancelled_head()
        return None

    @property
    def live(self) -> int:
        return self._live


def _install(sim: Simulator, queue) -> Simulator:
    sim._queue = queue
    sim._free = queue.free
    return sim


class HeapSimulator(Simulator):
    """A :class:`~repro.sim.kernel.Simulator` on the reference heap."""

    def __init__(self, start_time: float = 0.0) -> None:
        super().__init__(start_time)
        _install(self, HeapQueue())


def heap_recorder(built: List[Simulator]) -> type:
    """A :class:`HeapSimulator` subclass appending each instance to
    ``built``, so a test that patches it in can check it was used."""

    class RecordedHeapSimulator(HeapSimulator):
        def __init__(self, start_time: float = 0.0) -> None:
            super().__init__(start_time)
            built.append(self)

    return RecordedHeapSimulator


def calendar_simulator(
    bucket_width: float, start_time: float = 0.0
) -> Simulator:
    """The production simulator with a non-default bucket width.

    The width is a kernel constant in production; the equivalence
    tests vary it to show it never changes the event order.
    """
    return _install(Simulator(start_time), _CalendarQueue(bucket_width))
