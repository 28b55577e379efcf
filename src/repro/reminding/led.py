"""LED signalling through the sensor network (paper section 2.3).

    "The green LED indicates the tool should be used.  The red LED
    indicates the tool is incorrectly used."

Blink commands travel down the same radio as uplink frames; the
controller therefore goes through the base station rather than poking
node objects directly, so a lossy link affects guidance too (one of
the ablations measures exactly that).
"""

from __future__ import annotations

from typing import Optional

from repro.core.adl import ReminderLevel
from repro.core.bus import EventBus
from repro.core.config import RemindingConfig
from repro.core.events import LEDCommandEvent
from repro.sensors.network import BaseStation
from repro.sim.kernel import Simulator

__all__ = ["LedController"]


class LedController:
    """Issues green/red blink commands at level-appropriate counts."""

    def __init__(
        self,
        sim: Simulator,
        base_station: BaseStation,
        config: RemindingConfig,
        bus: Optional[EventBus] = None,
    ) -> None:
        self.sim = sim
        self.base_station = base_station
        self.config = config
        self.bus = bus
        self.commands_sent = 0

    def blinks_for(self, level: ReminderLevel) -> int:
        """Blink count for a reminding level."""
        if level is ReminderLevel.MINIMAL:
            return self.config.minimal_blinks
        return self.config.specific_blinks

    def indicate_target(self, node_uid: int, level: ReminderLevel) -> None:
        """Green-blink the tool that should be used."""
        self._send(node_uid, "green", self.blinks_for(level))

    def indicate_wrong_use(self, node_uid: int, level: ReminderLevel) -> None:
        """Red-blink the tool that is being incorrectly used."""
        self._send(node_uid, "red", self.blinks_for(level))

    def _send(self, node_uid: int, color: str, blinks: int) -> None:
        self.base_station.send_led_command(node_uid, color, blinks)
        self.commands_sent += 1
        if self.bus is not None:
            self.bus.publish(
                LEDCommandEvent(
                    time=self.sim.now, node_uid=node_uid, color=color, blinks=blinks
                )
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LedController(commands={self.commands_sent})"
