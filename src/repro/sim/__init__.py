"""Discrete-event simulation kernel.

The CoReDA reproduction runs entirely in simulated time.  This package
provides the minimal but complete substrate everything else is built
on:

* :class:`~repro.sim.kernel.Simulator` -- a priority-queue scheduler
  with deterministic tie-breaking.
* :class:`~repro.sim.process.Process` -- generator-based cooperative
  processes (``yield Timeout(dt)`` / ``yield Wait(signal)``).
* :class:`~repro.sim.random.RandomStreams` -- named, reproducible
  per-subsystem random-number streams derived from one master seed.
* :mod:`repro.sim.ziggurat` -- numpy's standard-normal ziggurat
  tables, which sensing block reads decode raw generator words with.
* :class:`~repro.sim.tracing.TraceRecorder` -- a structured event
  trace used by the evaluation harness to reconstruct timelines such
  as the paper's Figure 1 scenario.
"""

from repro.sim.kernel import Event, Signal, Simulator
from repro.sim.process import Process, Timeout, Wait
from repro.sim.random import RandomStreams
from repro.sim.tracing import TraceEntry, TraceRecorder

__all__ = [
    "Event",
    "Process",
    "RandomStreams",
    "Signal",
    "Simulator",
    "Timeout",
    "TraceEntry",
    "TraceRecorder",
    "Wait",
]
