"""Generic trace-to-timeline rendering.

Turns any :class:`~repro.sim.tracing.TraceRecorder` slice into the
human-readable event timeline of Figure 1 -- steps, reminders, LED
blinks, praise, completions -- for any ADL.  Used by the CLI's
``simulate --timeline`` and handy in notebooks and bug reports.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.adl import ADL
from repro.evalx.tables import format_table
from repro.sim.tracing import TraceRecorder

__all__ = ["timeline_rows", "render_timeline"]

#: Categories rendered, in no particular order (the trace is already
#: chronological).
CATEGORIES = (
    "sensing.step",
    "reminder.prompt",
    "reminder.praise",
    "reminder.gave_up",
    "node.led",
    "planning.completed",
    "resident.error",
    "resident.self_recovery",
    "node.battery_dead",
)


def timeline_rows(trace: TraceRecorder, adl: ADL) -> List[Tuple[float, str, str]]:
    """(time, kind, detail) rows for the whole trace."""
    wanted = set(CATEGORIES)
    rows: List[Tuple[float, str, str]] = []
    for entry in trace.entries():
        if entry.category not in wanted:
            continue
        rows.append((entry.time, *_describe(entry.category, entry.payload, adl)))
    return rows


def render_timeline(
    trace: TraceRecorder, adl: ADL, title: str = "Timeline"
) -> str:
    """Render the whole trace as an aligned table."""
    rows = timeline_rows(trace, adl)
    cells = [(f"{time:8.1f}", kind, detail) for time, kind, detail in rows]
    return format_table(["Time (s)", "Event", "Detail"], cells, title=title)


def _tool_name(adl: ADL, tool_id) -> str:
    if tool_id is not None and adl.has_step(tool_id):
        return adl.tool(tool_id).name
    return f"tool#{tool_id}"


def _describe(category: str, payload: dict, adl: ADL) -> Tuple[str, str]:
    if category == "sensing.step":
        step_id = payload.get("step_id")
        if step_id == 0:
            return "step", "idle (nothing used for a while)"
        name = adl.step(step_id).name if adl.has_step(step_id) else f"step#{step_id}"
        return "step", name
    if category == "reminder.prompt":
        detail = (
            f"prompt[{payload.get('level')}] use "
            f"{_tool_name(adl, payload.get('tool_id'))} "
            f"({payload.get('reason')})"
        )
        wrong = payload.get("wrong_tool_id")
        if wrong is not None:
            detail += f"; misusing {_tool_name(adl, wrong)}"
        return "reminder", detail
    if category == "reminder.praise":
        return "praise", "Excellent!"
    if category == "reminder.gave_up":
        return "alert", (
            f"gave up prompting {_tool_name(adl, payload.get('tool_id'))} "
            f"after {payload.get('attempts')} attempts -- caregiver needed"
        )
    if category == "node.led":
        return "led", (
            f"{payload.get('color')} LED x{payload.get('blinks')} on "
            f"{_tool_name(adl, payload.get('uid'))}"
        )
    if category == "planning.completed":
        return "completed", f"{payload.get('adl')} finished"
    if category == "resident.error":
        kind = payload.get("kind")
        detail = f"{kind} before {_tool_name(adl, payload.get('expected'))}"
        wrong = payload.get("wrong_tool")
        if wrong is not None:
            detail += f" (grabbed {_tool_name(adl, wrong)})"
        return "resident", detail
    if category == "resident.self_recovery":
        return "resident", "recovered without help"
    if category == "node.battery_dead":
        return "node", f"{_tool_name(adl, payload.get('uid'))} battery dead"
    return "event", str(payload)
