"""Deterministic virtual-time event scheduler.

Every simulated subsystem in this library (network links, timed Petri
nets, playout buffers, floor arbitration) runs on a single
:class:`VirtualClock`.  Time is a ``float`` number of seconds that only
advances when the owner of the clock runs queued events, which makes
whole-system runs reproducible: the same seed and the same schedule of
events always produce the same trace.

The design deliberately mirrors a minimal ``asyncio`` loop so that the
session layer can offer the same API over real wall-clock time (see
:mod:`repro.session.runner`).

Example
-------
>>> clock = VirtualClock()
>>> fired = []
>>> handle = clock.call_at(2.5, lambda: fired.append(clock.now()))
>>> clock.run_until(10.0)
>>> fired
[2.5]
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable

from ..errors import ClockError

__all__ = ["EventHandle", "PeriodicHandle", "VirtualClock", "periodic"]

_INF = math.inf


class EventHandle:
    """Cancellation handle returned by :meth:`VirtualClock.call_at`.

    It wraps the event's heap entry: cancelling clears the entry's
    callback slot in place, so the entry is skipped when popped.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already ran or was cancelled."""
        self._entry[2] = None

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    @property
    def when(self) -> float:
        """The virtual time at which the event is (was) due."""
        return self._entry[0]


class VirtualClock:
    """A discrete-event scheduler over virtual seconds.

    Heap entries are ``[time, seq, callback, args]`` lists, so ordering
    runs in C's sequence comparison: ``seq`` is unique, which makes
    same-instant events run in FIFO order (a property several tests and
    the global clock admission controller rely on) and keeps the
    comparison from ever reaching ``callback``.  Lists rather than
    tuples because an entry is its own cancellation record (a cancelled
    entry's ``callback`` is ``None``) and a :func:`periodic` series
    re-pushes one entry for every occurrence.  Only ``callback`` of an
    entry in the heap is ever written; time and seq change only while
    the entry is out of the heap.

    Parameters
    ----------
    start:
        Initial virtual time (seconds). Defaults to ``0.0``.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: list[list] = []
        self._counter = itertools.count()

    # ------------------------------------------------------------------
    # Time observation
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def pending(self) -> int:
        """Number of scheduled, not-yet-cancelled events."""
        return sum(1 for entry in self._heap if entry[2] is not None)

    def next_event_time(self) -> float | None:
        """Time of the earliest pending event, or ``None`` if idle."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``.

        Raises
        ------
        ClockError
            If ``when`` is in the virtual past, NaN, or infinite — a
            non-finite deadline compares ``False`` against everything
            and would silently corrupt the heap order.
        """
        if not self._now <= when < _INF:
            self._reject(when)
        entry = [float(when), next(self._counter), callback, args]
        heappush(self._heap, entry)
        return EventHandle(entry)

    def call_later(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise ClockError(f"negative delay: {delay!r}")
        return self.call_at(self._now + delay, callback, *args)

    def schedule(self, when: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at ``when`` with no handle.

        The fire-and-forget form of :meth:`call_at` for events that are
        never cancelled (network deliveries): it allocates no
        :class:`EventHandle`.  Ordering and validation are the same.
        """
        if not self._now <= when < _INF:
            self._reject(when)
        heappush(self._heap, [float(when), next(self._counter), callback, args])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single earliest event.

        Returns ``True`` if an event ran, ``False`` if the queue was
        empty.  Callbacks may schedule further events.
        """
        heap = self._heap
        while heap:
            when, _, callback, args = heappop(heap)
            if callback is not None:
                self._now = when
                callback(*args)
                return True
        return False

    def run_until(self, deadline: float) -> int:
        """Run all events due at or before ``deadline``.

        The clock is left exactly at ``deadline`` (even when the last
        event fired earlier), matching the behaviour of running a real
        loop for a fixed duration.  Returns the number of events run.
        """
        if not math.isfinite(deadline):
            raise ClockError(f"deadline must be finite, got {deadline!r}")
        if deadline < self._now:
            raise ClockError(
                f"deadline t={deadline:.6f} is before now t={self._now:.6f}"
            )
        heap = self._heap
        step = self.step
        count = 0
        while heap:
            head = heap[0]
            if head[2] is None:
                heappop(heap)
            elif head[0] > deadline:
                break
            else:
                step()
                count += 1
        self._now = deadline
        return count

    def run(self, max_events: int | None = None) -> int:
        """Run until the event queue drains (or ``max_events`` ran).

        Returns the number of events run.  A ``max_events`` bound guards
        against runaway self-rescheduling loops in tests.
        """
        count = 0
        while max_events is None or count < max_events:
            if not self.step():
                break
            count += 1
        return count

    def advance(self, delta: float) -> int:
        """Convenience: ``run_until(now + delta)``."""
        return self.run_until(self._now + delta)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _reject(self, when: float) -> None:
        """Raise the ClockError for a time that fails the
        ``now <= when < inf`` check (which also rejects NaN)."""
        if not math.isfinite(when):
            raise ClockError(f"event time must be finite, got {when!r}")
        raise ClockError(
            f"cannot schedule event at t={when:.6f}; "
            f"clock is already at t={self._now:.6f}"
        )

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6f}, pending={self.pending()})"


class PeriodicHandle(EventHandle):
    """Handle for a periodic series started by :func:`periodic`.

    The series owns one heap entry and re-pushes it after every
    occurrence with a fresh time and seq, so a running series allocates
    no entry and no handle per tick.  Cancelling stops all future
    occurrences of the series.
    """

    __slots__ = ("_clock", "_interval", "_callback", "_remaining")

    def __init__(
        self,
        clock: VirtualClock,
        first: float,
        interval: float,
        callback: Callable[[], Any],
        count: int | None,
    ) -> None:
        super().__init__(clock.call_at(first, self._tick)._entry)
        self._clock = clock
        self._interval = interval
        self._callback = callback
        self._remaining = count

    def _tick(self) -> None:
        self._callback()
        remaining = self._remaining
        if remaining is not None:
            remaining -= 1
            self._remaining = remaining
            if remaining == 0:
                return
        # The entry was popped to run this tick.  If the callback
        # cancelled the series, the re-pushed entry is skipped.
        clock = self._clock
        entry = self._entry
        entry[0] = clock._now + self._interval
        entry[1] = next(clock._counter)
        heappush(clock._heap, entry)


def periodic(
    clock: VirtualClock,
    interval: float,
    callback: Callable[[], Any],
    *,
    start_at: float | None = None,
    count: int | None = None,
) -> PeriodicHandle:
    """Schedule ``callback`` every ``interval`` virtual seconds.

    Parameters
    ----------
    start_at:
        Absolute time of the first call (defaults to ``now + interval``).
    count:
        Total number of calls; ``None`` means unbounded.

    Returns
    -------
    PeriodicHandle
        Cancel it to stop the whole series.
    """
    if not 0 < interval < _INF:
        raise ClockError(
            f"periodic interval must be positive and finite, got {interval!r}"
        )
    if count is not None and count < 1:
        raise ClockError(f"periodic count must be at least 1, got {count!r}")
    first = start_at if start_at is not None else clock.now() + interval
    return PeriodicHandle(clock, first, interval, callback, count)
