"""The deployed sensor network: one node per tool plus a base station.

Deploying CoReDA on a new ADL is exactly what the paper describes:
"attach one PAVENET to a tool, and configure its uid as the tool ID".
:class:`SensorNetwork` does that wholesale for an
:class:`~repro.core.adl.ADL`, wiring every node and the base station
onto one shared radio medium.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.core.adl import ADL
from repro.core.config import RadioConfig, SensingConfig
from repro.core.events import SensorFrameEvent
from repro.sensors.pavenet import PavenetNode
from repro.sensors.radio import (
    BASE_STATION_UID,
    DuplicateFilter,
    Frame,
    RadioMedium,
)
from repro.sensors.signals import SignalProfile, SignalSource
from repro.sim.kernel import Signal, Simulator
from repro.sim.random import RandomStreams
from repro.sim.tracing import TraceRecorder

__all__ = ["BaseStation", "SensorNetwork"]

#: The profile of a tool its ADL gives none (frozen, so shared).
_DEFAULT_PROFILE = SignalProfile()


class BaseStation:
    """The server-side radio endpoint (uid 0).

    Uplink ``usage`` frames are re-published on :attr:`frames` as
    :class:`~repro.core.events.SensorFrameEvent`; the sensing
    subsystem subscribes there.  Downlink LED commands go out through
    :meth:`send_led_command`.
    """

    def __init__(
        self,
        sim: Simulator,
        radio: RadioMedium,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.sim = sim
        self.radio = radio
        self._trace = trace
        self.frames = Signal("base_station.frames")
        self.frames_received = 0
        self.dedupe = DuplicateFilter()
        self._sequence = itertools.count(1)
        radio.attach(BASE_STATION_UID, self._on_frame)

    def _on_frame(self, frame: Frame) -> None:
        if frame.kind != "usage":
            return
        if not self.dedupe.is_fresh(frame):
            # ARQ duplicate (the node's ack was lost): already handled.
            return
        self.frames_received += 1
        event = SensorFrameEvent(
            time=self.sim.now, node_uid=frame.src_uid, sequence=frame.sequence
        )
        if self._trace is not None and self._trace.enabled:
            self._trace.emit(
                self.sim.now, "base.frame", uid=frame.src_uid, sequence=frame.sequence
            )
        self.frames.fire(event)

    def send_led_command(self, node_uid: int, color: str, blinks: int) -> None:
        """Transmit a blink command down to ``node_uid``."""
        self.radio.transmit(
            Frame(
                src_uid=BASE_STATION_UID,
                dst_uid=node_uid,
                kind="led",
                sequence=next(self._sequence),
                payload={"color": color, "blinks": blinks},
            )
        )


class SensorNetwork:
    """Everything radio-side for one ADL deployment.

    ``profiles`` optionally overrides the signal profile per ToolID;
    the ADL library modules supply calibrated profiles matching each
    tool's handling style (vigorous brushing vs a brief pour).
    """

    def __init__(
        self,
        sim: Simulator,
        adl: ADL,
        sensing_config: SensingConfig,
        radio_config: RadioConfig,
        streams: RandomStreams,
        trace: Optional[TraceRecorder] = None,
        profiles: Optional[Dict[int, SignalProfile]] = None,
    ) -> None:
        self.sim = sim
        self.adl = adl
        self.sensing_config = sensing_config
        self.medium = RadioMedium(
            sim, radio_config, streams.get("radio"), trace=trace
        )
        self.base_station = BaseStation(sim, self.medium, trace=trace)
        self.sources: Dict[int, SignalSource] = {}
        self.nodes: Dict[int, PavenetNode] = {}
        profiles = profiles or {}
        for tool in adl.tools:
            profile = profiles.get(tool.tool_id, _DEFAULT_PROFILE)
            source = SignalSource(
                profile, streams.get(f"signal.{tool.tool_id}")
            )
            node = PavenetNode(
                sim=sim,
                tool=tool,
                source=source,
                radio=self.medium,
                config=sensing_config,
                trace=trace,
            )
            self.sources[tool.tool_id] = source
            self.nodes[tool.tool_id] = node

    def start(self) -> None:
        """Boot every node's firmware loop.

        Boot order is the ADL's tool order (an explicit sequence, per
        the DET003 source invariant): it decides the kernel sequence
        numbers of the t=0 sampling events, hence the event stream's
        bytes.
        """
        for tool in self.adl.tools:
            self.nodes[tool.tool_id].start()

    def stop(self) -> None:
        """Power all nodes down (in the same explicit tool order)."""
        for tool in self.adl.tools:
            self.nodes[tool.tool_id].stop()

    def node(self, tool_id: int) -> PavenetNode:
        """The node attached to ``tool_id``."""
        return self.nodes[tool_id]

    def source(self, tool_id: int) -> SignalSource:
        """The signal source driving ``tool_id``'s sensor."""
        return self.sources[tool_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SensorNetwork({self.adl.name!r}, nodes={len(self.nodes)})"
