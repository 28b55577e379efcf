"""A CC1000-like lossy radio medium with stop-and-wait ARQ.

The real PAVENET talks over a ChipCon CC1000 transceiver.  For the
reproduction what matters is that frames can be *lost*, which erodes
end-to-end extraction precision (the radio-loss ablation sweeps
the loss rate).  The model:

* every transmission attempt is lost with ``loss_probability`` on the
  data frame and again on the acknowledgement;
* the sender retries up to ``max_retries`` times at
  ``retry_interval`` spacing (stop-and-wait ARQ);
* a delivered frame reaches the receiver ``latency`` seconds after
  the successful attempt;
* a delivered frame whose *ack* was lost is retried by the sender and
  therefore **delivered again** -- the classic stop-and-wait duplicate.
  Receivers must deduplicate by (source uid, sequence); the base
  station does.

Statistics are kept for reporting: attempts, losses, deliveries,
duplicates, permanent drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.config import RadioConfig
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecorder

__all__ = [
    "Frame",
    "RadioStats",
    "RadioMedium",
    "DuplicateFilter",
    "BASE_STATION_UID",
]

#: Destination uid of the base station / server.
BASE_STATION_UID = 0


@dataclass(frozen=True)
class Frame:
    """One link-layer frame."""

    src_uid: int
    dst_uid: int
    kind: str
    sequence: int
    payload: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RadioStats:
    """Counters the radio reports on."""

    attempts: int = 0
    losses: int = 0
    delivered: int = 0
    duplicates: int = 0
    dropped: int = 0
    retransmissions: int = 0

    @property
    def delivery_ratio(self) -> float:
        """Uniquely delivered / offered frames (1.0 when none offered).

        Duplicate deliveries of the same frame count once.
        """
        unique = self.delivered - self.duplicates
        offered = unique + self.dropped
        if offered == 0:
            return 1.0
        return unique / offered


class DuplicateFilter:
    """Receiver-side deduplication for stop-and-wait traffic.

    Under stop-and-wait, frames from one sender arrive in sequence
    order and duplicates re-use the original sequence number, so a
    frame is fresh exactly when its sequence exceeds the highest seen
    from that (sender, kind) pair.
    """

    def __init__(self) -> None:
        self._highest: Dict[tuple, int] = {}
        self.duplicates_filtered = 0

    def is_fresh(self, frame: Frame) -> bool:
        """True for first deliveries; False (and counted) for dups."""
        key = (frame.src_uid, frame.kind)
        if frame.sequence <= self._highest.get(key, 0):
            self.duplicates_filtered += 1
            return False
        self._highest[key] = frame.sequence
        return True


class RadioMedium:
    """The shared wireless medium connecting nodes and base station.

    Receivers register per uid with :meth:`attach`.  Transmissions are
    fire-and-forget for the caller; ARQ runs inside the medium.
    """

    def __init__(
        self,
        sim: Simulator,
        config: RadioConfig,
        rng: np.random.Generator,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self._rng = rng
        self._trace = trace
        self._receivers: Dict[int, Callable[[Frame], None]] = {}
        self.stats = RadioStats()

    def attach(self, uid: int, receiver: Callable[[Frame], None]) -> None:
        """Register the frame handler for destination ``uid``."""
        if uid in self._receivers:
            raise ValueError(f"uid {uid} already attached to the medium")
        self._receivers[uid] = receiver

    def transmit(self, frame: Frame) -> None:
        """Send ``frame`` with stop-and-wait ARQ."""
        state = {"delivered_once": False}
        self._attempt(
            frame, tries_left=self.config.max_retries + 1, first=True, state=state
        )

    def _attempt(self, frame: Frame, tries_left: int, first: bool, state) -> None:
        self.stats.attempts += 1
        if not first:
            self.stats.retransmissions += 1
        data_ok = self._rng.random() >= self.config.loss_probability
        ack_ok = self._rng.random() >= self.config.loss_probability
        if data_ok:
            # The receiver gets the frame whatever happens to the ack;
            # a lost ack makes the sender retry and the receiver see a
            # duplicate (classic stop-and-wait).
            duplicate = state["delivered_once"]
            state["delivered_once"] = True
            self.sim.schedule(
                self.config.latency, lambda: self._deliver(frame, duplicate)
            )
            if ack_ok:
                return
        self.stats.losses += 1
        if tries_left - 1 <= 0:
            if not state["delivered_once"]:
                self.stats.dropped += 1
                if self._trace is not None and self._trace.enabled:
                    self._trace.emit(
                        self.sim.now,
                        "radio.dropped",
                        src=frame.src_uid,
                        kind=frame.kind,
                        sequence=frame.sequence,
                    )
            return
        self.sim.schedule(
            self.config.retry_interval,
            lambda: self._attempt(frame, tries_left - 1, first=False, state=state),
        )

    def _deliver(self, frame: Frame, duplicate: bool = False) -> None:
        self.stats.delivered += 1
        if duplicate:
            self.stats.duplicates += 1
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(
                self.sim.now,
                "radio.delivered",
                src=frame.src_uid,
                dst=frame.dst_uid,
                kind=frame.kind,
                sequence=frame.sequence,
            )
        receiver = self._receivers.get(frame.dst_uid)
        if receiver is not None:
            receiver(frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RadioMedium(loss={self.config.loss_probability}, "
            f"delivered={self.stats.delivered}, dropped={self.stats.dropped})"
        )
