"""The PAVENET node model: firmware loop, LEDs, EEPROM, radio uplink.

Each tool carries one node.  The firmware is the same on every node
(the paper stresses this is what makes CoReDA "easily generalize to
other ADLs" -- only the uid differs): a 10 Hz sampling loop feeds the
3-of-10 detector, and each detection is logged to EEPROM and uplinked
as a ``usage`` frame carrying the node uid.  Downlink ``led`` frames
blink the requested LED.

Mains-powered nodes run the **block sampler**: one kernel event per
block of samples, drawn vectorised from the
:class:`~repro.sensors.signals.SignalSource` and fed to the detector
in one call, with usage reports scheduled at their exact per-sample
timestamps.  The block length follows the source's regime: an idle
tool samples :data:`IDLE_BLOCK_SAMPLES` per block, a use with a known
end reads straight through that end into :data:`IDLE_BLOCK_SAMPLES`
idle samples (one block per use), and an open-ended use (ended by
``end_use``) takes :data:`OPEN_BLOCK_SAMPLES` per block.  Every block
reads its sample clock as a window of one :class:`ClockLine` per
kernel, boot time and period, bit-identical to a per-sample
``Timeout(period)`` loop's; the node keeps only its index on the
line.  When the resident flips the signal regime mid-block, the node
rolls the source/detector back to the block start, replays the
committed prefix (in O(1) on the detector when it holds no
exceedance), and resumes sampling from the first uncommitted
timestamp -- unless the change leaves every uncommitted sample in the
regime it was drawn in (an ``end_use`` after the use expired), which
needs no replay.  The event stream is
byte-identical to the per-sample loop kept as the oracle in
``tests/oracles/sensing.py`` (see ``docs/architecture.md``).

Battery-powered nodes run that per-sample loop (one kernel event, one
RNG read and one detector step per sample): the battery drains per
sample *interleaved* with transmit drains, an ordering a pre-drawn
block cannot reproduce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.adl import Tool
from repro.core.config import SensingConfig
from repro.sensors.battery import Battery, PowerProfile
from repro.sensors.clock import RealTimeClock
from repro.sensors.detector import DetectorState, KofNDetector
from repro.sensors.eeprom import EepromLog, EepromRecord
from repro.sensors.hardware import LED_COLORS, PAVENET_SPEC
from repro.sensors.radio import (
    BASE_STATION_UID,
    DuplicateFilter,
    Frame,
    RadioMedium,
)
from repro.sensors.signals import ClockLine, SignalSource, SourceState
from repro.sim.kernel import Event, Simulator
from repro.sim.process import Process, Timeout
from repro.sim.tracing import TraceRecorder

__all__ = ["Led", "PavenetNode"]

#: Samples per block while the tool is idle, and the idle tail of a
#: block that reads through a use's known expiry.  Longer spans mean
#: fewer kernel events but more stale draws to discard when a use
#: begins mid-span; 100-300 measured fastest on a 1000-home fleet, 1000
#: slower, and with one block per use 100-600 time alike.
IDLE_BLOCK_SAMPLES = 200
#: Samples per block during an open-ended use (one ended by
#: ``end_use``, as in the Table 3 and ablation harnesses).
OPEN_BLOCK_SAMPLES = 10

_INF = float("inf")
#: The default costs, shared by every node (the profile is frozen).
_POWER_PROFILE = PowerProfile()
#: The clock and samples of a node between blocks: no samples, next
#: start 0.
_NO_CLOCK = np.zeros(1)
_NO_SAMPLES = np.zeros(0)


@dataclass
class BlinkRecord:
    """One executed blink command."""

    time: float
    blinks: int


class Led:
    """One of the node's four LEDs.

    Blink commands are recorded with their timestamps; the Figure 1
    scenario harness reads these back to verify e.g. "Red LED on
    teacup" fired at the wrong-tool moment.
    """

    __slots__ = ("color", "history", "_total_blinks")

    def __init__(self, color: str) -> None:
        self.color = color
        self.history: List[BlinkRecord] = []
        self._total_blinks = 0

    def blink(self, time: float, count: int) -> None:
        """Execute a blink command of ``count`` flashes."""
        if count <= 0:
            raise ValueError("blink count must be positive")
        self.history.append(BlinkRecord(time=time, blinks=count))
        self._total_blinks += count

    @property
    def total_blinks(self) -> int:
        """Total flashes executed since boot (O(1) running counter)."""
        return self._total_blinks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Led({self.color!r}, commands={len(self.history)})"


class PavenetNode:
    """A simulated PAVENET module attached to one tool.

    Parameters mirror the physical build: the node's ``uid`` *is* the
    ToolID (paper section 2.1), the signal source stands in for the
    physical sensor, and the radio medium carries usage frames to the
    base station (uid 0).
    """

    def __init__(
        self,
        sim: Simulator,
        tool: Tool,
        source: SignalSource,
        radio: RadioMedium,
        config: SensingConfig,
        trace: Optional[TraceRecorder] = None,
        battery: Optional[Battery] = None,
    ) -> None:
        self.sim = sim
        self.tool = tool
        self.uid = tool.tool_id
        self.source = source
        self.radio = radio
        self.config = config
        self._trace = trace
        self.detector = KofNDetector(
            threshold=config.usage_threshold,
            k=config.threshold_count,
            n=config.window_size,
            refractory_samples=int(config.refractory_period * config.sampling_hz),
        )
        self.eeprom = EepromLog(PAVENET_SPEC.eeprom_bytes)
        self.rtc = RealTimeClock(drift_ppm=20.0 + (self.uid % 7) * 5.0)
        self._leds: Optional[Dict[str, Led]] = None
        self._sequence = itertools.count(1)
        self._loop: Optional[Process] = None
        self.usage_reports = 0
        self._dedupe = DuplicateFilter()
        #: None = mains powered (tests and most experiments); a real
        #: Battery makes the node mortal.
        self.battery = battery
        # Block sampler state (see module docstring).
        self._hz = config.sampling_hz
        self._period = 1.0 / config.sampling_hz
        self._block_running = False
        self._block_event: Optional[Event] = None
        #: The clock line this node booted on, the line index of the
        #: next block's first sample, and that of the current block's
        #: (None between an invalidation or stop and the next block).
        self._clock: Optional[ClockLine] = None
        self._clock_index = 0
        self._block_index: Optional[int] = None
        #: The current block's clock (see ``_block_sample_times``).
        self._block_times = _NO_CLOCK
        #: The current block's samples, and the index of its first idle
        #: one (its length when the whole block is active).
        self._block_values = _NO_SAMPLES
        self._block_idle_from = 0
        self._last_report = -_INF
        self._block_source_state: Optional[SourceState] = None
        self._block_detector_state: Optional[DetectorState] = None
        #: The current block's usage reports, in time order.
        self._block_pending: List[Event] = []
        source.subscribe_regime(self._on_regime_change)
        radio.attach(self.uid, self._on_frame)

    @property
    def leds(self) -> Dict[str, Led]:
        """The node's LEDs by colour, built on first access."""
        leds = self._leds
        if leds is None:
            leds = self._leds = {color: Led(color) for color in LED_COLORS}
        return leds

    def start(self) -> None:
        """Boot the firmware: begin the 10 Hz sampling loop."""
        if self.running:
            return
        if self.battery is not None:
            self._loop = Process(
                self.sim, self._firmware_loop(), name=f"node{self.uid}.firmware"
            )
            return
        self._block_running = True
        # Every node that boots now on this kernel reads one line.
        key = (self.sim.now, self._period)
        line = self.sim.clock_lines.get(key)
        if line is None:
            line = self.sim.clock_lines[key] = ClockLine(*key)
        self._clock = line
        self._clock_index = 0
        self._block_event = self.sim.schedule(0.0, self._process_block)

    def stop(self) -> None:
        """Power the node down (sampling stops, radio stays attached)."""
        if self._loop is not None:
            self._loop.interrupt()
            self._loop = None
        if self._block_running:
            self._block_running = False
            if self._block_event is not None:
                self._block_event.cancel()
                self._block_event = None
            if self._block_index is not None:
                committed = self._committed(self.sim.now)
                self._cancel_reports_from(self._block_times.item(committed))
            self._block_index = None
            # Finished fleet homes linger until the cycle collector
            # runs; dropping their samples keeps peak memory flat.
            self._block_times = _NO_CLOCK
            self._block_values = _NO_SAMPLES

    @property
    def running(self) -> bool:
        """True while the firmware (loop or block sampler) is alive."""
        if self._block_running:
            return True
        return self._loop is not None and not self._loop.done

    # ----- per-sample firmware (battery nodes) ------------------------

    def _firmware_loop(self):
        period = self._period
        while True:
            if not self._drain(
                _POWER_PROFILE.sample_cost_mj
                + _POWER_PROFILE.idle_cost_mj_per_s * period
            ):
                if self._trace is not None and self._trace.enabled:
                    self._trace.emit(self.sim.now, "node.battery_dead",
                                     uid=self.uid)
                return  # the node dies in place
            if self.detector.observe(self.source.read(self.sim.now)):
                self._report_usage()
            yield Timeout(period)

    # ----- block sampler -----------------------------------------------

    def _block_sample_times(self, n: int) -> np.ndarray:
        """The block clock: ``n`` sample timestamps from the node's
        index on its clock line, then the timestamp that follows them
        (the next block's start).

        A read-only window of the node's clock line, so bit-identical
        to the per-sample loop's ``Timeout(period)`` clock from boot
        (see :func:`~repro.sensors.signals.sample_clock`).  Entries
        reach the kernel through ``item``, as plain floats.
        """
        return self._clock.window(self._clock_index, n + 1)

    def _process_block(self) -> None:
        sim = self.sim
        source = self.source
        t0 = sim.now
        # Snapshot everything a mid-block regime change would need to
        # roll back: RNG + regime and the detector window.
        self._block_source_state = source.capture()
        self._block_detector_state = self.detector.snapshot()
        if not source.active:
            n = IDLE_BLOCK_SAMPLES
            idle_from = 0
            times = self._block_sample_times(n)
            values = source.read_block(t0, n, self._hz)
        else:
            until = source.active_until
            if until == _INF:
                n = idle_from = OPEN_BLOCK_SAMPLES
                times = self._block_sample_times(n)
            else:
                # Read through the known expiry (the read expires the
                # use itself) into an idle block's worth of samples.  A
                # use longer than an idle block spans whole active
                # blocks first, so no expiry sizes a block on its own.
                times = self._block_sample_times(2 * IDLE_BLOCK_SAMPLES)
                idle_from = int(times[:IDLE_BLOCK_SAMPLES].searchsorted(until))
                n = IDLE_BLOCK_SAMPLES
                if idle_from < n:
                    n += idle_from
                times = times[:n + 1]
            values = source.read_block_at(times[:n])
        hits = self.detector.observe_block(values)
        self._block_pending = pending = []
        for index in hits:
            if index == 0:
                self._report_usage()
            else:
                pending.append(
                    sim.schedule_at(times.item(index), self._report_usage)
                )
        self._block_index = self._clock_index
        self._clock_index += n
        self._block_times = times
        self._block_values = values
        self._block_idle_from = idle_from
        self._block_event = sim.schedule_at(times.item(n), self._process_block)

    def _committed(self, now: float) -> int:
        """How many samples of the current block the clock has passed.

        Samples before ``now`` are committed.  A sample *at* ``now`` is
        committed only if this node already acted on it at this
        instant: the block event that drew it fired now, or its usage
        report did.  Otherwise the change that is running now came
        first, as a change scheduled ahead of time does in the
        per-sample loop.
        """
        times = self._block_times
        n = len(times) - 1
        j = int(times[:n].searchsorted(now))
        # times[j] >= now and reports never lie ahead of the clock, so
        # these ordering tests are ties with ``now``.
        if j < n and times.item(j) <= now and (j == 0 or self._last_report >= now):
            j += 1
        return j

    def _cancel_reports_from(self, time: float) -> None:
        """Cancel the block's usage reports scheduled at ``time`` or later.

        Every earlier report has already fired.
        """
        for event in self._block_pending:
            if event.time >= time:
                event.cancel()
        self._block_pending = []

    def _on_regime_change(self) -> None:
        """Invalidate the pre-drawn block tail after ``begin_use``/``end_use``.

        Committed samples (see :meth:`_committed`) were read before
        the change, and their draws and any usage reports already
        happened with identical bytes.  Later samples were drawn from
        the wrong regime: roll the detector back to the block start and
        feed it the committed samples again (or just count them, when
        none exceeds the threshold), redraw the committed samples from
        the block start -- or, past a use's expiry, from the source's
        checkpoint at the first idle sample -- to restore the exact RNG
        position, re-apply the new regime, and resume block sampling at
        the first uncommitted timestamp.
        """
        block_index = self._block_index
        if not self._block_running or block_index is None:
            return
        times = self._block_times
        j = self._committed(self.sim.now)
        if j == len(times) - 1:
            return  # every sample in this block is already committed
        source = self.source
        if j >= self._block_idle_from and not source.active:
            # The tail was drawn idle and the tool is idle (an
            # ``end_use`` after the use expired): nothing to redraw.
            return
        resume = times.item(j)
        # Usage reports drawn from the stale tail must not fire.
        self._cancel_reports_from(resume)
        if self._block_event is not None:
            self._block_event.cancel()
            self._block_event = None
        post_active = source.active
        post_until = source.active_until
        detector = self.detector
        # The detector has observed nothing since this block's read, so
        # its first exceedance is still the block's.
        quiet = j <= detector.first_exceedance
        detector.restore(self._block_detector_state)
        if quiet:
            detector.advance_quiet(j)
        else:
            # Replay for state only: the committed hits already fired,
            # so the indices are discarded.
            detector.observe_block(self._block_values[:j])
        start = self._block_idle_from
        if 0 < start < j:
            source.restore(source.checkpoint)
        else:
            start = 0
            source.restore(self._block_source_state)
        if j > start:
            source.read_block_at(times[start:j])
        source.set_regime(post_active, post_until)
        self._block_index = None
        self._clock_index = block_index + j
        self._block_event = self.sim.schedule_at(resume, self._process_block)

    # ----- shared machinery --------------------------------------------

    def _drain(self, amount_mj: float) -> bool:
        if self.battery is None:
            return True
        return self.battery.drain(amount_mj)

    def _report_usage(self) -> None:
        sequence = next(self._sequence)
        self.usage_reports += 1
        self._last_report = self.sim.now
        self.eeprom.append(
            EepromRecord(
                timestamp=self.rtc.local_time(self.sim.now),
                node_uid=self.uid,
                sequence=sequence,
            )
        )
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(
                self.sim.now, "node.usage_detected", uid=self.uid, sequence=sequence
            )
        self._drain(_POWER_PROFILE.tx_attempt_cost_mj)
        self.radio.transmit(
            Frame(
                src_uid=self.uid,
                dst_uid=BASE_STATION_UID,
                kind="usage",
                sequence=sequence,
            )
        )

    def _on_frame(self, frame: Frame) -> None:
        if frame.kind != "led":
            return
        if not self._dedupe.is_fresh(frame):
            # ARQ duplicate of a blink command already executed.
            return
        color = frame.payload.get("color", "green")
        blinks = int(frame.payload.get("blinks", 1))
        led = self.leds.get(color)
        if led is None:
            return
        if not self._drain(blinks * _POWER_PROFILE.led_blink_cost_mj):
            return
        led.blink(self.sim.now, blinks)
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(
                self.sim.now,
                "node.led",
                uid=self.uid,
                color=color,
                blinks=blinks,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PavenetNode(uid={self.uid}, tool={self.tool.name!r})"
