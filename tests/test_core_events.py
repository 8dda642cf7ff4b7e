"""Tests for the floor-control event log."""

from repro.events import EventBus, EventKind


def seeded_log():
    log = EventBus()
    log.append(1.0, EventKind.JOIN, "alice", "session")
    log.append(2.0, EventKind.REQUEST, "alice", "session", "equal_control")
    log.append(2.0, EventKind.GRANT, "alice", "session")
    log.append(3.0, EventKind.REQUEST, "bob", "session", "equal_control")
    log.append(3.0, EventKind.QUEUE, "bob", "session")
    log.append(5.0, EventKind.TOKEN_PASS, "alice", "session", "bob")
    log.append(6.0, EventKind.SUSPEND, "carol", "side")
    return log


class TestEventLog:
    def test_append_returns_event(self):
        log = EventBus()
        event = log.append(1.0, EventKind.JOIN, "x", "g", "note")
        assert event.time == 1.0
        assert event.detail == "note"

    def test_len_and_iter(self):
        log = seeded_log()
        assert len(log) == 7
        assert len(list(log)) == 7

    def test_of_kind(self):
        log = seeded_log()
        assert len(log.of_kind(EventKind.REQUEST)) == 2
        assert log.of_kind(EventKind.DENY) == []

    def test_for_member(self):
        log = seeded_log()
        assert {e.kind for e in log.for_member("bob")} == {
            EventKind.REQUEST,
            EventKind.QUEUE,
        }

    def test_for_group(self):
        log = seeded_log()
        assert [e.member for e in log.for_group("side")] == ["carol"]

    def test_between_is_inclusive(self):
        log = seeded_log()
        window = log.between(2.0, 3.0)
        assert len(window) == 4

    def test_tail(self):
        log = seeded_log()
        assert [e.kind for e in log.tail(2)] == [
            EventKind.TOKEN_PASS,
            EventKind.SUSPEND,
        ]

    def test_tail_larger_than_log(self):
        log = EventBus()
        log.append(1.0, EventKind.JOIN, "x", "g")
        assert len(log.tail(10)) == 1


class _Recorder:
    """A callable that records events and compares equal to its kin.

    Equality across distinct instances is what exposed the seed-era
    unsubscribe bug: ``list.remove`` matches by equality, so detaching
    one listener could silently drop a different-but-equal one.
    """

    def __init__(self):
        self.seen = []

    def __call__(self, event):
        self.seen.append(event)

    def __eq__(self, other):
        return isinstance(other, _Recorder)

    def __hash__(self):
        return 1


class TestEventLogSubscribe:
    def test_unsubscribe_removes_by_identity_not_equality(self):
        log = EventBus()
        first, second = _Recorder(), _Recorder()
        unsubscribe_first = log.subscribe(first)
        log.subscribe(second)
        unsubscribe_first()
        event = log.append(1.0, EventKind.JOIN, "x", "g")
        assert first.seen == []
        assert second.seen == [event]  # the equal listener survived

    def test_listener_unsubscribing_itself_mid_callback(self):
        log = EventBus()
        seen = []
        unsubscribe = None

        def once(event):
            seen.append(event)
            unsubscribe()

        unsubscribe = log.subscribe(once)
        log.append(1.0, EventKind.JOIN, "x", "g")
        log.append(2.0, EventKind.LEAVE, "x", "g")
        assert len(seen) == 1  # no crash; second append not observed

    def test_raising_listener_does_not_corrupt_log_or_starve_others(self):
        log = EventBus()
        seen = []

        def explode(event):
            raise ValueError("boom")

        log.subscribe(explode)
        log.subscribe(seen.append)
        event = log.append(1.0, EventKind.JOIN, "x", "g")
        assert seen == [event]
        assert list(log) == [event]
        assert len(log.listener_errors) == 1

    def test_append_from_listener_keeps_global_order(self):
        log = EventBus()

        def reactor(event):
            if event.kind is EventKind.REQUEST:
                log.append(event.time, EventKind.GRANT, event.member,
                           event.group)

        log.subscribe(reactor)
        log.append(1.0, EventKind.REQUEST, "x", "g")
        assert [e.kind for e in log] == [EventKind.REQUEST, EventKind.GRANT]
