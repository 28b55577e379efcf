"""A typed publish/subscribe event bus.

Subsystems communicate exclusively through the bus, mirroring the
loose coupling of the paper's Figure 2 architecture: the sensing
subsystem publishes :class:`~repro.core.events.ToolUsageEvent` and
:class:`~repro.core.events.StepEvent`, the planning subsystem consumes
steps and publishes prompt requests, the reminding subsystem consumes
prompt requests and publishes reminders / LED commands.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Type, TypeVar

__all__ = ["EventBus"]

E = TypeVar("E")


class EventBus:
    """Dispatches dataclass events to handlers registered per type.

    Exact-type dispatch only (no subclass walking): event types here
    are flat dataclasses, and exactness keeps dispatch O(1) and
    unambiguous.  Handlers registered while an event is being
    published do not receive that event.
    """

    def __init__(self) -> None:
        self._handlers: Dict[type, List[Callable[[Any], None]]] = defaultdict(list)

    def subscribe(
        self, event_type: Type[E], handler: Callable[[E], None]
    ) -> Callable[[], None]:
        """Register ``handler`` for ``event_type``; returns unsubscriber."""
        self._handlers[event_type].append(handler)

        def unsubscribe() -> None:
            try:
                self._handlers[event_type].remove(handler)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, event: Any) -> int:
        """Deliver ``event`` to all handlers of its exact type.

        Returns the number of handlers invoked, which tests use to
        assert wiring (a published-but-unheard event usually means a
        subsystem was not connected).
        """
        handlers = list(self._handlers.get(type(event), ()))
        for handler in handlers:
            handler(event)
        return len(handlers)

    def handler_count(self, event_type: type) -> int:
        """How many handlers are registered for ``event_type``."""
        return len(self._handlers.get(event_type, ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {t.__name__: len(h) for t, h in self._handlers.items() if h}
        return f"EventBus({kinds})"
