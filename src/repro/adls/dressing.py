"""The dressing ADL (generalization set, multi-routine).

Dressing is the paper's named example of an activity where "one user
may have multiple routines to complete it" (future-work item 1): some
days socks go on before trousers, some days after.  The multi-routine
planner is evaluated on this ADL with two alternative routines
sharing the same six tools.
"""

from __future__ import annotations

from typing import List

from repro.adls.library import ADLDefinition
from repro.core.adl import ADL, ADLStep, Routine, SensorType, Tool
from repro.sensors.signals import SignalProfile

__all__ = [
    "SHIRT",
    "TROUSERS",
    "SOCKS",
    "SHOES",
    "BELT",
    "JACKET",
    "make_dressing",
    "dressing_definition",
    "dressing_routines",
]

#: ToolIDs 31-36.
SHIRT = Tool(31, "shirt", SensorType.ACCELEROMETER, picture="shirt.png")
TROUSERS = Tool(32, "trousers", SensorType.ACCELEROMETER, picture="trousers.png")
SOCKS = Tool(33, "socks", SensorType.ACCELEROMETER, picture="socks.png")
SHOES = Tool(34, "shoes", SensorType.ACCELEROMETER, picture="shoes.png")
BELT = Tool(35, "belt", SensorType.ACCELEROMETER, picture="belt.png")
JACKET = Tool(36, "jacket", SensorType.ACCELEROMETER, picture="jacket.png")


def make_dressing() -> ADL:
    """The dressing ADL (canonical order: shirt first, jacket last)."""
    return ADL(
        "dressing",
        [
            ADLStep(
                "Put on the shirt",
                SHIRT,
                typical_duration=20.0,
                duration_sd=4.0,
                handling_duration=10.0,
            ),
            ADLStep(
                "Put on the trousers",
                TROUSERS,
                typical_duration=18.0,
                duration_sd=3.5,
                handling_duration=9.0,
            ),
            ADLStep(
                "Put on the socks",
                SOCKS,
                typical_duration=12.0,
                duration_sd=2.5,
                handling_duration=6.0,
            ),
            ADLStep(
                "Put on the shoes",
                SHOES,
                typical_duration=14.0,
                duration_sd=2.5,
                handling_duration=7.0,
            ),
            ADLStep(
                "Fasten the belt",
                BELT,
                typical_duration=8.0,
                duration_sd=1.5,
                handling_duration=4.0,
            ),
            ADLStep(
                "Put on the jacket",
                JACKET,
                typical_duration=15.0,
                duration_sd=3.0,
                handling_duration=8.0,
            ),
        ],
    )


def dressing_routines(adl: ADL) -> List[Routine]:
    """The two personal routines used by the multi-routine extension.

    Routine A dresses top-down (socks after trousers); routine B puts
    socks on first.  Both end with the jacket.
    """
    a = Routine(
        adl,
        [
            SHIRT.tool_id,
            TROUSERS.tool_id,
            SOCKS.tool_id,
            SHOES.tool_id,
            BELT.tool_id,
            JACKET.tool_id,
        ],
    )
    b = Routine(
        adl,
        [
            SOCKS.tool_id,
            SHIRT.tool_id,
            TROUSERS.tool_id,
            BELT.tool_id,
            SHOES.tool_id,
            JACKET.tool_id,
        ],
    )
    return [a, b]


def dressing_definition() -> ADLDefinition:
    """Dressing plus per-tool signal profiles."""
    profiles = {
        tool.tool_id: SignalProfile(burst_probability=0.45)
        for tool in (SHIRT, TROUSERS, SOCKS, SHOES, JACKET)
    }
    # Fastening a belt is quick and subtle.
    profiles[BELT.tool_id] = SignalProfile(burst_probability=0.32)
    return ADLDefinition(adl=make_dressing(), signal_profiles=profiles)
