"""Figure 1: the typical CoReDA scenario, replayed end to end.

Mr. Tanaka makes tea.  After putting tea-leaf into the kettle he
incorrectly takes the tea-cup: CoReDA prompts the electronic-pot with
all four methods (text message, red LED on the tea-cup, green LED on
the pot, pot picture).  When he correctly uses the pot he is praised.
After pouring tea he does nothing for 30 seconds: CoReDA prompts the
tea-cup with three methods (no red LED -- no tool is being misused).
When he drinks, he is praised and the activity completes.

The harness scripts exactly those two errors into a simulated
resident, runs the full pipeline, and reconstructs the timeline from
the trace.  Exact second marks differ from the paper's (13 s / 23 s /
71 s) because our step pacing is synthetic; the *structure* --
ordering, trigger reasons, LED colours, praise -- is asserted by the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

from repro.adls.tea_making import KETTLE, POT, TEABOX, TEACUP, tea_making_definition
from repro.core.config import CoReDAConfig, RemindingConfig
from repro.core.events import TriggerReason
from repro.core.system import CoReDA
from repro.evalx.tables import format_table
from repro.resident.compliance import ComplianceModel
from repro.resident.dementia import ErrorKind, ScriptedError

__all__ = [
    "TimelineEvent",
    "ScenarioResult",
    "build_tea_scenario",
    "run_tea_scenario",
]


@dataclass(frozen=True)
class TimelineEvent:
    """One line of the reconstructed Figure 1 timeline."""

    time: float
    kind: str
    detail: str


@dataclass
class ScenarioResult:
    """The reconstructed scenario with structural checks."""

    timeline: List[TimelineEvent]
    completed: bool
    wrong_tool_prompt_time: Optional[float]
    first_praise_time: Optional[float]
    stall_prompt_time: Optional[float]
    second_praise_time: Optional[float]
    wrong_tool_methods: int
    stall_methods: int

    def structure_ok(self) -> bool:
        """The Figure 1 ordering and prompt structure all hold."""
        anchors = [
            self.wrong_tool_prompt_time,
            self.first_praise_time,
            self.stall_prompt_time,
            self.second_praise_time,
        ]
        if any(anchor is None for anchor in anchors):
            return False
        ordered = all(a < b for a, b in zip(anchors, anchors[1:]))
        return (
            ordered
            and self.completed
            # text + picture + green LED + red LED
            and self.wrong_tool_methods == 4
            # text + picture + green LED (no tool is being misused)
            and self.stall_methods == 3
        )

    def to_table(self) -> str:
        """Render the timeline in Figure 1's time/step/reminding style."""
        rows = [
            (f"{event.time:6.1f}", event.kind, event.detail)
            for event in self.timeline
        ]
        return format_table(
            ["Time (s)", "Event", "Detail"],
            rows,
            title="Figure 1. A typical scenario of CoReDA (reproduced)",
        )


def build_tea_scenario():
    """The trained Figure 1 world, ready to run: ``(system, resident)``.

    Split out of :func:`run_tea_scenario` so harnesses that need the
    raw observable streams (trace entries, base-station frames, node
    EEPROMs) -- e.g. the PYTHONHASHSEED determinism sanitizer -- can
    run the identical scenario and inspect the system afterwards.
    """
    definition = tea_making_definition()
    base = CoReDAConfig(seed=11)
    # Figure 1 uses the fixed 30 s "did nothing" rule; the idle
    # transition from the sensing subsystem (30 s after the last tool
    # activity) is the trigger, so the planner's own statistical
    # timer is parked well behind it.
    config = replace(
        base,
        reminding=RemindingConfig(
            statistical_timeout=False, stall_timeout=60.0, user_title="Mr. Tanaka"
        ),
    )
    system = CoReDA.build(definition, config)
    system.train_offline(episodes=120)
    resident = system.create_resident(
        compliance=ComplianceModel.perfect(),
        error_script={
            1: ScriptedError(ErrorKind.WRONG_TOOL, wrong_tool_id=TEACUP.tool_id),
            3: ScriptedError(ErrorKind.STALL),
        },
        dwell_overrides={
            TEABOX.tool_id: 10.0,
            POT.tool_id: 8.0,
            KETTLE.tool_id: 8.0,
            TEACUP.tool_id: 6.0,
        },
        # A prompted user handles the tool deliberately: long enough
        # that the scripted scenario never loses a step to the
        # detector (sensing misses are Table 3's subject, not
        # Figure 1's).
        handling_overrides={
            POT.tool_id: 6.0,
            TEACUP.tool_id: 5.0,
        },
        error_use_duration=6.0,
        name="tanaka",
    )
    return system, resident


def run_tea_scenario() -> ScenarioResult:
    """Run the Figure 1 scenario and reconstruct its timeline.

    The sensing equivalence test replays this scenario on per-sample
    oracle nodes and on the production block samplers and asserts
    identical timelines.
    """
    system, resident = build_tea_scenario()
    outcome = system.run_episode(resident, horizon=600.0)
    return _reconstruct(system, outcome.completed)


def _reconstruct(system: CoReDA, completed: bool) -> ScenarioResult:
    timeline: List[TimelineEvent] = []
    wrong_prompt = first_praise = stall_prompt = second_praise = None
    wrong_methods = stall_methods = 0
    for entry in system.trace.entries():
        if entry.category == "sensing.step":
            step_id = entry.payload["step_id"]
            name = (
                system.adl.step(step_id).name if system.adl.has_step(step_id) else "idle"
            )
            timeline.append(TimelineEvent(entry.time, "step", name))
        elif entry.category == "reminder.prompt":
            reason = entry.payload["reason"]
            tool = system.adl.tool(entry.payload["tool_id"]).name
            detail = f"prompt[{entry.payload['level']}] use {tool} ({reason})"
            timeline.append(TimelineEvent(entry.time, "reminder", detail))
            # Methods: text message + tool picture (display) + green
            # LED, plus the red LED when a wrong tool is in hand.
            if reason == TriggerReason.WRONG_TOOL.name and wrong_prompt is None:
                wrong_prompt = entry.time
                wrong_methods = 3 + (
                    1 if entry.payload.get("wrong_tool_id") is not None else 0
                )
            elif reason == TriggerReason.STALL.name and stall_prompt is None:
                stall_prompt = entry.time
                stall_methods = 3
        elif entry.category == "reminder.praise":
            timeline.append(TimelineEvent(entry.time, "praise", "Excellent!"))
            if first_praise is None and wrong_prompt is not None:
                first_praise = entry.time
            elif second_praise is None and stall_prompt is not None:
                second_praise = entry.time
        elif entry.category == "node.led":
            detail = (
                f"{entry.payload['color']} LED x{entry.payload['blinks']} on "
                f"{system.adl.tool(entry.payload['uid']).name}"
            )
            timeline.append(TimelineEvent(entry.time, "led", detail))
        elif entry.category == "planning.completed":
            timeline.append(TimelineEvent(entry.time, "completed", "tea is made"))
    return ScenarioResult(
        timeline=timeline,
        completed=completed,
        wrong_tool_prompt_time=wrong_prompt,
        first_praise_time=first_praise,
        stall_prompt_time=stall_prompt,
        second_praise_time=second_praise,
        wrong_tool_methods=wrong_methods,
        stall_methods=stall_methods,
    )
