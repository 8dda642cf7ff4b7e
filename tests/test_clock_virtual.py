"""Tests for the virtual-time event scheduler."""

import pytest
from hypothesis import given, strategies as st

from repro.clock.virtual import VirtualClock, periodic
from repro.errors import ClockError


class TestVirtualClockBasics:
    def test_starts_at_zero_by_default(self):
        assert VirtualClock().now() == 0.0

    def test_starts_at_given_time(self):
        assert VirtualClock(start=42.5).now() == 42.5

    def test_now_does_not_advance_on_its_own(self):
        clock = VirtualClock()
        for _ in range(10):
            assert clock.now() == 0.0

    def test_pending_counts_scheduled_events(self):
        clock = VirtualClock()
        clock.call_at(1.0, lambda: None)
        clock.call_at(2.0, lambda: None)
        assert clock.pending() == 2

    def test_next_event_time_none_when_idle(self):
        assert VirtualClock().next_event_time() is None

    def test_next_event_time_reports_earliest(self):
        clock = VirtualClock()
        clock.call_at(5.0, lambda: None)
        clock.call_at(3.0, lambda: None)
        assert clock.next_event_time() == 3.0


class TestScheduling:
    def test_call_at_runs_at_scheduled_time(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(2.5, lambda: seen.append(clock.now()))
        clock.run_until(10.0)
        assert seen == [2.5]

    def test_call_later_is_relative(self):
        clock = VirtualClock(start=100.0)
        seen = []
        clock.call_later(3.0, lambda: seen.append(clock.now()))
        clock.run_until(200.0)
        assert seen == [103.0]

    def test_call_at_passes_args(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(1.0, seen.append, "payload")
        clock.run(max_events=10)
        assert seen == ["payload"]

    def test_scheduling_in_the_past_raises(self):
        clock = VirtualClock(start=10.0)
        with pytest.raises(ClockError):
            clock.call_at(9.9, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(ClockError):
            VirtualClock().call_later(-0.1, lambda: None)

    def test_nan_deadline_rejected(self):
        """Regression: ``when < now`` is False for NaN, so a NaN
        deadline used to slip into the heap and corrupt its order."""
        clock = VirtualClock()
        with pytest.raises(ClockError, match="finite"):
            clock.call_at(float("nan"), lambda: None)
        assert clock.pending() == 0

    def test_infinite_deadline_rejected(self):
        clock = VirtualClock()
        for when in (float("inf"), float("-inf")):
            with pytest.raises(ClockError, match="finite"):
                clock.call_at(when, lambda: None)
        assert clock.pending() == 0

    def test_nan_delay_rejected(self):
        with pytest.raises(ClockError):
            VirtualClock().call_later(float("nan"), lambda: None)

    def test_nan_event_never_corrupts_heap_order(self):
        """Events scheduled after the rejected NaN still run in order."""
        clock = VirtualClock()
        seen = []
        clock.call_at(2.0, seen.append, "b")
        with pytest.raises(ClockError):
            clock.call_at(float("nan"), seen.append, "never")
        clock.call_at(1.0, seen.append, "a")
        clock.run_until(3.0)
        assert seen == ["a", "b"]

    def test_run_until_rejects_non_finite_deadline(self):
        clock = VirtualClock()
        clock.call_at(1.0, lambda: None)
        for deadline in (float("nan"), float("inf")):
            with pytest.raises(ClockError, match="finite"):
                clock.run_until(deadline)
        assert clock.pending() == 1  # nothing ran, nothing lost

    def test_same_time_events_run_fifo(self):
        clock = VirtualClock()
        order = []
        clock.call_at(1.0, order.append, "first")
        clock.call_at(1.0, order.append, "second")
        clock.call_at(1.0, order.append, "third")
        clock.run()
        assert order == ["first", "second", "third"]

    def test_callback_can_schedule_more_events(self):
        clock = VirtualClock()
        seen = []

        def chain():
            seen.append(clock.now())
            if clock.now() < 3.0:
                clock.call_later(1.0, chain)

        clock.call_at(1.0, chain)
        clock.run_until(10.0)
        assert seen == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        clock = VirtualClock()
        seen = []
        handle = clock.call_at(1.0, seen.append, "x")
        handle.cancel()
        clock.run_until(5.0)
        assert seen == []

    def test_cancel_is_idempotent(self):
        clock = VirtualClock()
        handle = clock.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancelled_events_not_in_pending(self):
        clock = VirtualClock()
        handle = clock.call_at(1.0, lambda: None)
        clock.call_at(2.0, lambda: None)
        handle.cancel()
        assert clock.pending() == 1

    def test_handle_reports_when(self):
        clock = VirtualClock()
        handle = clock.call_at(7.25, lambda: None)
        assert handle.when == 7.25


class TestExecution:
    def test_step_returns_false_when_empty(self):
        assert VirtualClock().step() is False

    def test_step_runs_exactly_one_event(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(1.0, seen.append, 1)
        clock.call_at(2.0, seen.append, 2)
        assert clock.step() is True
        assert seen == [1]
        assert clock.now() == 1.0

    def test_run_until_leaves_clock_at_deadline(self):
        clock = VirtualClock()
        clock.call_at(1.0, lambda: None)
        clock.run_until(5.0)
        assert clock.now() == 5.0

    def test_run_until_excludes_later_events(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(1.0, seen.append, "early")
        clock.call_at(9.0, seen.append, "late")
        clock.run_until(5.0)
        assert seen == ["early"]

    def test_run_until_includes_events_at_deadline(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(5.0, seen.append, "at-deadline")
        clock.run_until(5.0)
        assert seen == ["at-deadline"]

    def test_run_until_past_deadline_raises(self):
        clock = VirtualClock(start=10.0)
        with pytest.raises(ClockError):
            clock.run_until(9.0)

    def test_run_returns_event_count(self):
        clock = VirtualClock()
        for i in range(5):
            clock.call_at(float(i + 1), lambda: None)
        assert clock.run() == 5

    def test_run_max_events_bounds_execution(self):
        clock = VirtualClock()

        def reschedule():
            clock.call_later(1.0, reschedule)

        clock.call_at(1.0, reschedule)
        assert clock.run(max_events=17) == 17

    def test_advance_is_relative_run_until(self):
        clock = VirtualClock(start=10.0)
        seen = []
        clock.call_at(12.0, seen.append, "hit")
        clock.advance(5.0)
        assert clock.now() == 15.0
        assert seen == ["hit"]


class TestPeriodic:
    def test_periodic_fires_at_interval(self):
        clock = VirtualClock()
        times = []
        periodic(clock, 2.0, lambda: times.append(clock.now()), count=3)
        clock.run_until(20.0)
        assert times == [2.0, 4.0, 6.0]

    def test_periodic_start_at_overrides_first_time(self):
        clock = VirtualClock()
        times = []
        periodic(clock, 2.0, lambda: times.append(clock.now()), start_at=0.5, count=2)
        clock.run_until(20.0)
        assert times == [0.5, 2.5]

    def test_periodic_cancel_stops_series(self):
        clock = VirtualClock()
        times = []
        handle = periodic(clock, 1.0, lambda: times.append(clock.now()))
        clock.run_until(3.0)
        handle.cancel()
        clock.run_until(10.0)
        assert times == [1.0, 2.0, 3.0]

    def test_periodic_unbounded_keeps_going(self):
        clock = VirtualClock()
        count = [0]
        periodic(clock, 1.0, lambda: count.__setitem__(0, count[0] + 1))
        clock.run_until(100.0)
        assert count[0] == 100

    def test_periodic_rejects_bad_interval(self):
        with pytest.raises(ClockError):
            periodic(VirtualClock(), 0.0, lambda: None)

    def test_periodic_rejects_zero_count(self):
        with pytest.raises(ClockError):
            periodic(VirtualClock(), 1.0, lambda: None, count=0)

    @pytest.mark.parametrize("interval", [float("inf"), float("nan")])
    def test_periodic_rejects_non_finite_interval(self, interval):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            periodic(clock, interval, lambda: None, start_at=1.0)
        assert clock.pending() == 0

    def test_periodic_rejects_start_in_the_past(self):
        clock = VirtualClock(start=5.0)
        with pytest.raises(ClockError):
            periodic(clock, 1.0, lambda: None, start_at=4.0)

    def test_periodic_rearms_one_heap_entry(self):
        # Every occurrence re-pushes the series' single heap entry: a
        # long series allocates no entry and no handle per tick.
        clock = VirtualClock()
        handle = periodic(clock, 0.25, lambda: None)
        (first,) = clock._heap
        for tick in range(1, 9):
            (entry,) = clock._heap
            assert entry is first
            assert handle.when == tick * 0.25
            assert clock.step()

    def test_periodic_cancelled_by_its_callback_stops_cleanly(self):
        clock = VirtualClock()
        times = []

        def once():
            times.append(clock.now())
            handle.cancel()

        handle = periodic(clock, 1.0, once)
        assert clock.run_until(10.0) == 1
        assert times == [1.0]
        assert clock.pending() == 0

    def test_periodic_interleaves_fifo_with_same_instant_events(self):
        # A re-armed occurrence takes its FIFO slot at re-arm time, so
        # it runs after events already scheduled for the same instant.
        clock = VirtualClock()
        order = []
        clock.call_at(2.0, order.append, "early")
        periodic(clock, 1.0, lambda: order.append(f"tick@{clock.now():g}"))
        clock.call_at(1.0, order.append, "late")
        clock.run_until(2.0)
        assert order == ["tick@1", "late", "early", "tick@2"]


class TestSchedule:
    def test_schedule_runs_like_call_at(self):
        clock = VirtualClock()
        seen = []
        assert clock.schedule(1.5, seen.append, "x") is None
        assert clock.pending() == 1
        assert clock.next_event_time() == 1.5
        clock.run_until(2.0)
        assert seen == ["x"]

    def test_schedule_shares_fifo_order_with_call_at(self):
        clock = VirtualClock()
        order = []
        clock.call_at(1.0, order.append, 1)
        clock.schedule(1.0, order.append, 2)
        clock.call_at(1.0, order.append, 3).cancel()
        clock.schedule(1.0, order.append, 4)
        clock.run()
        assert order == [1, 2, 4]

    @pytest.mark.parametrize("when", [float("nan"), float("inf"), -1.0])
    def test_schedule_rejects_bad_times(self, when):
        clock = VirtualClock()
        with pytest.raises(ClockError):
            clock.schedule(when, lambda: None)
        assert clock.pending() == 0

    def test_integer_times_are_stored_as_floats(self):
        clock = VirtualClock()
        clock.schedule(2, lambda: None)
        clock.run()
        assert isinstance(clock.now(), float)


class TestRunUntilHead:
    def test_cancelled_head_never_lets_a_later_event_jump_the_deadline(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(1.0, seen.append, "cancelled").cancel()
        clock.call_at(5.0, seen.append, "later")
        assert clock.run_until(2.0) == 0
        assert seen == [] and clock.now() == 2.0
        assert clock.pending() == 1


class TestFootprint:
    def test_scheduled_events_carry_no_dict(self):
        # A 10k-session fleet keeps one heap entry per pending timer;
        # dict-free entries (four-item lists) keep that footprint flat.
        clock = VirtualClock()
        clock.call_at(1.0, lambda: None)
        (entry,) = clock._heap
        assert not hasattr(entry, "__dict__")
        with pytest.raises(AttributeError):
            entry.stray = 1

    def test_pending_timer_footprint_is_pinned(self):
        # The entry list plus its share of heap-list and args-tuple
        # overhead stays under 200 bytes (~150 measured); an instance
        # dict alone would roughly double that.  bench_e17 measures the
        # same number.
        import tracemalloc

        clock = VirtualClock()
        entries = 10_000

        def noop():
            pass

        tracemalloc.start()
        before, __ = tracemalloc.get_traced_memory()
        for i in range(entries):
            clock.call_at(float(i), noop)
        after, __ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        per_entry = (after - before) / entries
        assert per_entry < 200, f"{per_entry:.0f} bytes per pending timer"


class TestPropertyBased:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_events_always_run_in_time_order(self, times):
        clock = VirtualClock()
        seen = []
        for t in times:
            clock.call_at(t, seen.append, t)
        clock.run()
        assert seen == sorted(seen)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=1e3),
    )
    def test_run_until_runs_exactly_due_events(self, times, deadline):
        clock = VirtualClock()
        ran = []
        for t in times:
            clock.call_at(t, ran.append, t)
        clock.run_until(deadline)
        assert sorted(ran) == sorted(t for t in times if t <= deadline)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20))
    def test_clock_is_monotonic_across_steps(self, times):
        clock = VirtualClock()
        observed = []
        for t in times:
            clock.call_at(t, lambda: observed.append(clock.now()))
        while clock.step():
            pass
        assert all(a <= b for a, b in zip(observed, observed[1:]))


class _ReferenceClock:
    """The scheduling contract spelled out naively: of the live events
    due by the deadline, the one with the smallest (time, scheduling
    order) runs next; a periodic occurrence is re-scheduled after its
    callback, taking a fresh place in that order."""

    def __init__(self):
        self.now = 0.0
        self.order = 0
        self.events = []

    def add(self, when, label, interval=None, remaining=None):
        self.order += 1
        event = {"time": when, "order": self.order, "label": label,
                 "interval": interval, "remaining": remaining, "cancelled": False}
        self.events.append(event)
        return event

    def cancel(self, event):
        event["cancelled"] = True
        # A periodic series is one logical event: cancel its next occurrence.
        for other in self.events:
            if other["label"] == event["label"]:
                other["cancelled"] = True

    def pending(self):
        return sum(1 for event in self.events if not event["cancelled"])

    def run_until(self, deadline, fired):
        count = 0
        while True:
            due = [e for e in self.events if not e["cancelled"] and e["time"] <= deadline]
            if not due:
                break
            event = min(due, key=lambda e: (e["time"], e["order"]))
            self.events.remove(event)
            self.now = event["time"]
            fired.append(event["label"])
            count += 1
            remaining = event["remaining"]
            if event["interval"] is not None and remaining != 1:
                self.add(
                    self.now + event["interval"], event["label"], event["interval"],
                    None if remaining is None else remaining - 1,
                )
        self.events = [e for e in self.events if not e["cancelled"]]
        self.now = deadline
        return count


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("call_at"), st.sampled_from([0.0, 0.5, 1.0, 2.0])),
        st.tuples(st.just("schedule"), st.sampled_from([0.0, 0.5, 1.0])),
        st.tuples(
            st.just("periodic"), st.sampled_from([0.5, 1.0]), st.sampled_from([None, 1, 3])
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=15)),
        st.tuples(st.just("run_until"), st.sampled_from([0.0, 0.5, 1.25, 3.0])),
    ),
    max_size=40,
)


class TestAgainstReferenceModel:
    @given(_OPS)
    def test_generated_schedules_fire_like_the_reference(self, ops):
        clock, model = VirtualClock(), _ReferenceClock()
        fired, expected = [], []
        handles = []
        for index, op in enumerate(ops):
            kind = op[0]
            if kind in ("call_at", "schedule"):
                when = clock.now() + op[1]
                if kind == "call_at":
                    handle = clock.call_at(when, fired.append, index)
                    handles.append((handle, model.add(when, index)))
                else:
                    clock.schedule(when, fired.append, index)
                    model.add(when, index)
            elif kind == "periodic":
                __, interval, count = op
                handle = periodic(
                    clock, interval, lambda label=index: fired.append(label), count=count
                )
                handles.append(
                    (handle, model.add(clock.now() + interval, index, interval, count))
                )
            elif kind == "cancel":
                if handles:
                    handle, event = handles[op[1] % len(handles)]
                    handle.cancel()
                    model.cancel(event)
            else:
                deadline = clock.now() + op[1]
                assert clock.run_until(deadline) == model.run_until(deadline, expected)
                assert fired == expected
                assert clock.now() == model.now
            assert clock.pending() == model.pending()
        deadline = clock.now() + 10.0
        assert clock.run_until(deadline) == model.run_until(deadline, expected)
        assert fired == expected
