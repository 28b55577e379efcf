"""CoReDA core: data model, events, bus, configuration, orchestrator."""

from repro.core.adl import (
    ADL,
    ADLStep,
    IDLE_STEP_ID,
    ReminderLevel,
    Routine,
    SensorType,
    Tool,
)
from repro.core.bus import EventBus
from repro.core.config import (
    CoReDAConfig,
    PlanningConfig,
    RadioConfig,
    RemindingConfig,
    SensingConfig,
)
from repro.core.errors import (
    ConfigurationError,
    CoReDAError,
    NotConvergedError,
    RoutineError,
    UnknownADLError,
    UnknownStepError,
)
from repro.core.events import (
    DisplayEvent,
    EpisodeCompletedEvent,
    LEDCommandEvent,
    PraiseEvent,
    PromptRequestEvent,
    ReminderEvent,
    SensorFrameEvent,
    StepEvent,
    ToolUsageEvent,
    TriggerReason,
)
from repro.core.home import CareHome, DayResult, ScheduledActivity
from repro.core.session import EpisodeRecord, SessionLog
from repro.core.system import CoReDA

__all__ = [
    "ADL",
    "ADLStep",
    "CareHome",
    "CoReDA",
    "CoReDAConfig",
    "DayResult",
    "ScheduledActivity",
    "CoReDAError",
    "ConfigurationError",
    "DisplayEvent",
    "EpisodeCompletedEvent",
    "EpisodeRecord",
    "EventBus",
    "IDLE_STEP_ID",
    "LEDCommandEvent",
    "NotConvergedError",
    "PlanningConfig",
    "PraiseEvent",
    "PromptRequestEvent",
    "RadioConfig",
    "ReminderEvent",
    "ReminderLevel",
    "RemindingConfig",
    "Routine",
    "RoutineError",
    "SensingConfig",
    "SensorFrameEvent",
    "SensorType",
    "SessionLog",
    "StepEvent",
    "Tool",
    "ToolUsageEvent",
    "TriggerReason",
    "UnknownADLError",
    "UnknownStepError",
]
