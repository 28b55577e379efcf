"""Prompt message rendering (paper section 2.3 / Figure 1).

    "minimal gives short message (e.g., 'use tea-cup') and less
    blinks; specific gives long message (e.g., 'Mr. Kim, use the black
    tea-box in front of you.') and more blinks."
"""

from __future__ import annotations

from repro.core.adl import ReminderLevel, Tool

__all__ = ["render_message"]

#: The praise line after a correctly followed prompt, straight from
#: Figure 1.
PRAISE_MESSAGE = "Excellent!"


def render_message(level: ReminderLevel, tool: Tool, user_title: str) -> str:
    """The display text for a prompt at the given level."""
    if level is ReminderLevel.MINIMAL:
        return f"Please use {tool.name}."
    return f"{user_title}, use the {tool.name} in front of you."
