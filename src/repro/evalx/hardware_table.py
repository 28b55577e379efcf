"""Tables 1 and 2: the static hardware and sensor-mapping tables.

These are descriptive rather than measured, but the reproduction
regenerates them from the same objects the simulation actually uses,
so any drift between documentation and implementation fails a test.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.adls.library import ADLDefinition
from repro.evalx.tables import format_table
from repro.sensors.hardware import PAVENET_SPEC

__all__ = ["table1_hardware", "table2_sensor_map", "table2_rows"]


def table1_hardware() -> str:
    """Render Table 1 (Hardware of PAVENET)."""
    return format_table(
        ["Field", "Value"],
        PAVENET_SPEC.table_rows(),
        title="Table 1. Hardware of PAVENET",
    )


def table2_rows(definitions: List[ADLDefinition]) -> List[Tuple[str, str, str]]:
    """Rows (ADL, step, sensor-on-tool) of Table 2."""
    rows: List[Tuple[str, str, str]] = []
    for definition in definitions:
        for step in definition.adl.steps:
            sensor = step.tool.sensor.value
            short = "Acce." if "acceler" in sensor else sensor.capitalize()
            rows.append(
                (definition.adl.name, step.name, f"{short} on {step.tool.name}")
            )
    return rows


def table2_sensor_map(definitions: List[ADLDefinition]) -> str:
    """Render Table 2 (Sensor and tool of ADL Step)."""
    return format_table(
        ["ADL", "ADL Step", "Sensors & Tools"],
        table2_rows(definitions),
        title="Table 2. Sensor and tool of ADL Step",
    )
