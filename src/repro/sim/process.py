"""Generator-based cooperative processes on top of the kernel.

A process is a Python generator that yields *directives*:

* ``yield Timeout(dt)`` -- sleep ``dt`` simulated seconds.
* ``yield Wait(signal)`` -- suspend until ``signal`` fires; the fired
  payload is sent back into the generator as the value of the yield.

Processes model the periodic firmware loops on PAVENET nodes and the
scripted behaviour of simulated residents without inverting control
flow into callback spaghetti.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Union

from repro.sim.kernel import Event, Signal, Simulator

__all__ = ["Timeout", "Wait", "Process"]


@dataclass(frozen=True)
class Timeout:
    """Directive: resume the process after ``delay`` seconds."""

    delay: float


@dataclass(frozen=True)
class Wait:
    """Directive: resume the process when ``signal`` next fires.

    If ``timeout`` is given and the signal does not fire within it,
    the process resumes with the value ``Wait.TIMED_OUT`` instead of
    the signal payload.
    """

    signal: Signal
    timeout: Optional[float] = None

    TIMED_OUT = object()


Directive = Union[Timeout, Wait]
ProcessBody = Generator[Directive, Any, Any]


class Process:
    """Drives a generator through the simulator.

    The process starts immediately (its first segment runs at the
    current simulated time) unless ``delay`` is given.  When the
    generator returns, :attr:`done` becomes ``True`` and
    :attr:`result` holds its return value.  :attr:`finished` is a
    :class:`~repro.sim.kernel.Signal` fired once on completion with
    the result as payload.
    """

    def __init__(
        self,
        sim: Simulator,
        body: ProcessBody,
        name: str = "process",
        delay: float = 0.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.done = False
        self.result: Any = None
        self.finished = Signal(f"{name}.finished")
        self._body = body
        self._interrupted = False
        self._pending_event: Optional[Event] = None
        self._pending_unsubscribe: Optional[Callable[[], None]] = None
        # One callback object reused for every Timeout resume: the
        # periodic firmware loops schedule one of these per sample, so
        # a fresh lambda per dispatch is pure allocator churn.
        self._timeout_resume = self._resume_from_timeout
        sim.schedule(delay, self._timeout_resume)

    def interrupt(self) -> None:
        """Stop the process: its generator is closed, ``done`` set.

        Interrupting a finished process is a no-op.
        """
        if self.done:
            return
        self._interrupted = True
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        if self._pending_unsubscribe is not None:
            self._pending_unsubscribe()
            self._pending_unsubscribe = None
        self._body.close()
        self._finish(None)

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        self.finished.fire(result)

    def _resume_from_timeout(self) -> None:
        # The event just fired: a later interrupt() has nothing to
        # cancel.
        self._pending_event = None
        self._advance(None)

    def _advance(self, value: Any) -> None:
        if self.done:
            return
        try:
            directive = self._body.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        self._dispatch(directive)

    def _dispatch(self, directive: Directive) -> None:
        if isinstance(directive, Timeout):
            self._pending_event = self.sim.schedule(
                directive.delay, self._timeout_resume
            )
            return
        if isinstance(directive, Wait):
            self._wait_on(directive)
            return
        raise TypeError(
            f"process {self.name!r} yielded {directive!r}; "
            "expected Timeout or Wait"
        )

    def _wait_on(self, wait: Wait) -> None:
        resumed = {"flag": False}

        def resume(payload: Any) -> None:
            if resumed["flag"]:
                return
            resumed["flag"] = True
            if self._pending_unsubscribe is not None:
                self._pending_unsubscribe()
                self._pending_unsubscribe = None
            if self._pending_event is not None:
                self._pending_event.cancel()
                self._pending_event = None
            self._advance(payload)

        self._pending_unsubscribe = wait.signal.subscribe(resume)
        if wait.timeout is not None:
            self._pending_event = self.sim.schedule(
                wait.timeout, lambda: resume(Wait.TIMED_OUT)
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"
