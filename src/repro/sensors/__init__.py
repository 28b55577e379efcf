"""The PAVENET wireless-sensor-node substrate.

A faithful software model of the hardware the paper deploys: synthetic
sensor waveforms, the 10 Hz / 3-of-10 usage detector, EEPROM logging,
a drifting RTC, a lossy CC1000-like radio with stop-and-wait ARQ, and
the node firmware tying them together.  ``SensorNetwork`` deploys one
node per tool of an ADL plus the base station.
"""

from repro.sensors.battery import Battery, PowerProfile, estimate_lifetime_days
from repro.sensors.clock import RealTimeClock
from repro.sensors.detector import KofNDetector
from repro.sensors.eeprom import EepromLog, EepromRecord
from repro.sensors.hardware import LED_COLORS, PAVENET_SPEC, HardwareSpec
from repro.sensors.network import BaseStation, SensorNetwork
from repro.sensors.pavenet import Led, PavenetNode
from repro.sensors.radio import (
    BASE_STATION_UID,
    DuplicateFilter,
    Frame,
    RadioMedium,
    RadioStats,
)
from repro.sensors.signals import SignalProfile, SignalSource

__all__ = [
    "BASE_STATION_UID",
    "BaseStation",
    "Battery",
    "DuplicateFilter",
    "PowerProfile",
    "estimate_lifetime_days",
    "EepromLog",
    "EepromRecord",
    "Frame",
    "HardwareSpec",
    "KofNDetector",
    "LED_COLORS",
    "Led",
    "PAVENET_SPEC",
    "PavenetNode",
    "RadioMedium",
    "RadioStats",
    "RealTimeClock",
    "SensorNetwork",
    "SignalProfile",
    "SignalSource",
]
