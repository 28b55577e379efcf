"""Table 3: extract precision of tool usage.

The paper collected 320 physical samples (40 per tool over two ADLs)
and reports, per ADL step, how often handling the tool was extracted
as that step.  We replay the experiment end to end through the
simulated substrate: for each step, the tool's signal source is
activated for the step's handling duration, the node's 10 Hz sampler
and 3-of-10 detector run, frames cross the lossy radio, and we check
whether the sensing subsystem recorded the usage.

Expected shape (not exact percentages): long vigorous steps detect
essentially always; the two short steps -- "Dry with a towel" and
"Pour hot water into kettle" -- are the weakest, exactly the paper's
finding ("the duration of these two steps are relatively shorter").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.adls.library import ADLDefinition
from repro.core.config import CoReDAConfig
from repro.core.metrics import proportion
from repro.evalx.parallel import Cell, Section
from repro.evalx.tables import format_table
from repro.sensing.subsystem import SensingSubsystem
from repro.sensors.network import SensorNetwork
from repro.core.bus import EventBus
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams

__all__ = [
    "StepPrecision",
    "ExtractPrecisionResult",
    "plan_extract_precision",
]

#: Quiet time between trials so detector windows and radio retries
#: from one trial cannot bleed into the next.
_TRIAL_GAP = 6.0


@dataclass(frozen=True)
class StepPrecision:
    """One row of Table 3."""

    adl_name: str
    step_name: str
    detections: int
    trials: int

    @property
    def precision(self) -> float:
        return proportion(self.detections, self.trials)


@dataclass
class ExtractPrecisionResult:
    """All rows plus rendering."""

    rows: List[StepPrecision]

    def row_for(self, step_name: str) -> StepPrecision:
        """Look a row up by step name."""
        for row in self.rows:
            if row.step_name == step_name:
                return row
        raise KeyError(step_name)

    def to_table(self) -> str:
        """Render in the paper's Table 3 layout."""
        cells = [
            (
                row.adl_name,
                row.step_name,
                f"{row.precision:.0%}",
                f"{row.detections}/{row.trials}",
            )
            for row in self.rows
        ]
        return format_table(
            ["ADL", "ADL Step", "Extract Precision", "Samples"],
            cells,
            title="Table 3. Extract Precision of ADL Step",
        )


def _extract_cell(
    definition: ADLDefinition,
    samples_per_step: int,
    config: CoReDAConfig,
    seed: int,
) -> List[StepPrecision]:
    """One ADL's full node-radio-server replay (pure, picklable)."""
    rows: List[StepPrecision] = []
    sim = Simulator()
    streams = RandomStreams(seed)
    bus = EventBus()
    network = SensorNetwork(
        sim=sim,
        adl=definition.adl,
        sensing_config=config.sensing,
        radio_config=config.radio,
        streams=streams.fork(definition.adl.name),
        profiles=definition.signal_profiles,
    )
    sensing = SensingSubsystem(
        sim=sim,
        adl=definition.adl,
        bus=bus,
        config=config.sensing,
        base_station=network.base_station,
    )
    network.start()
    for step in definition.adl.steps:
        detections = 0
        for _ in range(samples_per_step):
            before = len(sensing.history.of_tool(step.step_id))
            network.source(step.step_id).begin_use(
                sim.now, step.handling_duration
            )
            sim.run_until(sim.now + step.handling_duration + 2.0)
            network.source(step.step_id).end_use()
            sim.run_until(sim.now + _TRIAL_GAP)
            after = len(sensing.history.of_tool(step.step_id))
            if after > before:
                detections += 1
        rows.append(
            StepPrecision(
                adl_name=definition.adl.name,
                step_name=step.name,
                detections=detections,
                trials=samples_per_step,
            )
        )
    network.stop()
    return rows


#: The seed every Table 3 cell samples its handlings from.
SEED = 0


def plan_extract_precision(
    definitions: Sequence[ADLDefinition],
    samples_per_step: int = 40,
    config: Optional[CoReDAConfig] = None,
) -> Section:
    """Table 3 over ``definitions``, as a section of one cell per ADL.

    The paper's experiment is 40 samples per tool; one *sample* here
    is one complete handling of the tool at the step's typical
    handling duration, through the full node-radio-server pipeline.
    """
    config = config if config is not None else CoReDAConfig()
    cells = [
        Cell(
            _extract_cell,
            (definition, samples_per_step, config, SEED),
            label=f"extract.{definition.adl.name}",
        )
        for definition in definitions
    ]

    def merge(per_adl: List[List[StepPrecision]]) -> ExtractPrecisionResult:
        rows: List[StepPrecision] = []
        for adl_rows in per_adl:
            rows.extend(adl_rows)
        return ExtractPrecisionResult(rows=rows)

    return Section("table3.extract", cells, merge)
