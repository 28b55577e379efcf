"""A typed publish/subscribe event bus.

Subsystems communicate exclusively through the bus, mirroring the
loose coupling of the paper's Figure 2 architecture: the sensing
subsystem publishes :class:`~repro.core.events.ToolUsageEvent` and
:class:`~repro.core.events.StepEvent`, the planning subsystem consumes
steps and publishes prompt requests, the reminding subsystem consumes
prompt requests and publishes reminders / LED commands.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple, Type, TypeVar

__all__ = ["EventBus"]

E = TypeVar("E")


class EventBus:
    """Dispatches dataclass events to handlers registered per type.

    Exact-type dispatch only (no subclass walking): event types here
    are flat dataclasses, and exactness keeps dispatch O(1) and
    unambiguous.  Each type's handler roster is a tuple that
    :meth:`subscribe` and unsubscribing replace, so a publish walks the
    roster it started with: handlers registered while an event is
    being published do not receive that event, and handlers
    unsubscribed meanwhile still do.
    """

    def __init__(self) -> None:
        self._handlers: Dict[type, Tuple[Callable[[Any], None], ...]] = {}

    def subscribe(
        self, event_type: Type[E], handler: Callable[[E], None]
    ) -> Callable[[], None]:
        """Register ``handler`` for ``event_type``; returns unsubscriber."""
        handlers = self._handlers
        handlers[event_type] = handlers.get(event_type, ()) + (handler,)

        def unsubscribe() -> None:
            roster = handlers.get(event_type, ())
            if handler in roster:
                i = roster.index(handler)
                handlers[event_type] = roster[:i] + roster[i + 1:]

        return unsubscribe

    def publish(self, event: Any) -> int:
        """Deliver ``event`` to all handlers of its exact type.

        Returns the number of handlers invoked, which tests use to
        assert wiring (a published-but-unheard event usually means a
        subsystem was not connected).
        """
        handlers = self._handlers.get(type(event), ())
        for handler in handlers:
            handler(event)
        return len(handlers)

    def handler_count(self, event_type: type) -> int:
        """How many handlers are registered for ``event_type``."""
        return len(self._handlers.get(event_type, ()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {t.__name__: len(h) for t, h in self._handlers.items() if h}
        return f"EventBus({kinds})"
