"""The reminding subsystem: text, picture and LED prompts."""

from repro.reminding.display import Display
from repro.reminding.escalation import EscalationDecision, EscalationPolicy
from repro.reminding.led import LedController
from repro.reminding.prompts import render_message
from repro.reminding.subsystem import RemindingSubsystem

__all__ = [
    "Display",
    "EscalationDecision",
    "EscalationPolicy",
    "LedController",
    "RemindingSubsystem",
    "render_message",
]
