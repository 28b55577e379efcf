"""The ADL registry.

Generalizing CoReDA to a new activity is (per the paper) just
"attach one PAVENET to a tool, and configure its uid as the tool ID".
In the reproduction that means: define the ADL's steps, tools and
signal profiles in one module and register it here.  Everything else
-- sensing, planning, reminding, evaluation -- is ADL-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core.adl import ADL
from repro.core.errors import UnknownADLError
from repro.sensors.signals import SignalProfile

__all__ = ["ADLDefinition", "ADLRegistry", "default_registry"]


@dataclass(frozen=True)
class ADLDefinition:
    """An ADL plus its per-tool sensor signal profiles."""

    adl: ADL
    signal_profiles: Dict[int, SignalProfile] = field(default_factory=dict)


class ADLRegistry:
    """Name -> definition lookup with lazy construction."""

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[[], ADLDefinition]] = {}
        self._cache: Dict[str, ADLDefinition] = {}

    def register(self, name: str, factory: Callable[[], ADLDefinition]) -> None:
        """Register a definition factory under ``name``."""
        if name in self._factories:
            raise ValueError(f"ADL {name!r} is already registered")
        self._factories[name] = factory

    def get(self, name: str) -> ADLDefinition:
        """The definition for ``name`` (built once, then cached)."""
        if name not in self._factories:
            raise UnknownADLError(
                f"unknown ADL {name!r}; registered: {self.names()}"
            )
        if name not in self._cache:
            self._cache[name] = self._factories[name]()
        return self._cache[name]

    def names(self) -> List[str]:
        """All registered ADL names, sorted."""
        return sorted(self._factories)


def default_registry() -> ADLRegistry:
    """A registry with every ADL shipped in this package.

    The paper's two evaluation ADLs (tea-making, tooth-brushing) plus
    the generalization set (hand-washing, dressing, coffee-making).
    """
    # Imported here to avoid import cycles (ADL modules import nothing
    # from this module, but keeping registration central reads best).
    from repro.adls.coffee_making import coffee_making_definition
    from repro.adls.dressing import dressing_definition
    from repro.adls.hand_washing import hand_washing_definition
    from repro.adls.tea_making import tea_making_definition
    from repro.adls.tooth_brushing import tooth_brushing_definition

    registry = ADLRegistry()
    registry.register("tea-making", tea_making_definition)
    registry.register("tooth-brushing", tooth_brushing_definition)
    registry.register("hand-washing", hand_washing_definition)
    registry.register("dressing", dressing_definition)
    registry.register("coffee-making", coffee_making_definition)
    return registry
