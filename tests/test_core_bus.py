"""Unit tests for the typed event bus."""

from dataclasses import dataclass

from repro.core.bus import EventBus


@dataclass(frozen=True)
class Ping:
    value: int


@dataclass(frozen=True)
class Pong:
    value: int


class TestDispatch:
    def test_handler_receives_event(self):
        bus = EventBus()
        seen = []
        bus.subscribe(Ping, seen.append)
        bus.publish(Ping(1))
        assert seen == [Ping(1)]

    def test_exact_type_dispatch_only(self):
        bus = EventBus()
        pings, pongs = [], []
        bus.subscribe(Ping, pings.append)
        bus.subscribe(Pong, pongs.append)
        bus.publish(Ping(1))
        bus.publish(Pong(2))
        assert pings == [Ping(1)]
        assert pongs == [Pong(2)]

    def test_publish_returns_handler_count(self):
        bus = EventBus()
        bus.subscribe(Ping, lambda e: None)
        bus.subscribe(Ping, lambda e: None)
        assert bus.publish(Ping(1)) == 2
        assert bus.publish(Pong(1)) == 0

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(Ping, seen.append)
        unsubscribe()
        bus.publish(Ping(1))
        assert seen == []

    def test_unsubscribe_twice_is_noop(self):
        bus = EventBus()
        unsubscribe = bus.subscribe(Ping, lambda e: None)
        unsubscribe()
        unsubscribe()

    def test_handler_added_during_publish_not_called(self):
        bus = EventBus()
        seen = []

        def first(event):
            seen.append("first")
            bus.subscribe(Ping, lambda e: seen.append("late"))

        bus.subscribe(Ping, first)
        bus.publish(Ping(1))
        assert seen == ["first"]

    def test_handler_removed_during_publish_still_called(self):
        bus = EventBus()
        seen = []

        def first(event):
            seen.append(("first", event.value))
            unsubscribe_second()

        bus.subscribe(Ping, first)
        unsubscribe_second = bus.subscribe(
            Ping, lambda e: seen.append(("second", e.value))
        )
        assert bus.publish(Ping(1)) == 2
        assert bus.publish(Ping(2)) == 1
        assert seen == [("first", 1), ("second", 1), ("first", 2)]

    def test_unsubscribe_removes_one_registration(self):
        bus = EventBus()
        seen = []
        bus.subscribe(Ping, seen.append)
        unsubscribe = bus.subscribe(Ping, seen.append)
        unsubscribe()
        assert bus.publish(Ping(1)) == 1
        assert seen == [Ping(1)]

    def test_counters(self):
        bus = EventBus()
        bus.subscribe(Ping, lambda e: None)
        assert bus.publish(Ping(1)) == 1
        assert bus.publish(Pong(2)) == 0
        assert bus.handler_count(Ping) == 1
        assert bus.handler_count(Pong) == 0
