"""The indexed event bus: O(k) queries, filtered subscriptions, rings.

A flat event list would re-scan the whole transcript on every
``of_kind`` / ``for_member`` / ``between`` query and hand every event
to every listener.  :class:`EventBus` is append-only too, but maintains

* a time-sorted spine (appends from the virtual clock are already
  monotonic, so ``between`` is a bisect — ``O(log n + k)``; a bus fed
  out-of-order timestamps degrades gracefully to a scan),
* per-kind, per-member and per-group indexes in append order, making
  ``of_kind``/``for_member``/``for_group`` ``O(k)`` and ``count``
  ``O(1)``,
* *filtered* subscriptions — ``subscribe(fn, kinds=..., members=...,
  groups=...)`` — with exception-isolated dispatch: a raising listener
  is recorded in :attr:`EventBus.listener_errors` and never starves the
  listeners after it, and unsubscription removes by identity, so two
  equal callables can coexist safely.

Events appended *from inside a listener* are stored immediately (the
transcript keeps global order) but dispatched after the current event
finishes fanning out, so every listener observes events in the same
global order the log records.

``capacity`` turns the bus into a bounded ring for long-running
sessions: the oldest events are evicted from the spine and every index
in O(1) amortized, with :attr:`EventBus.evicted` counting what was
dropped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..errors import EventBusError
from ..trace import timing as _timing
from .types import EventKind, FloorEvent

__all__ = ["EventBus", "ListenerError", "Subscription"]

#: When eviction has orphaned this many spine slots (and at least half
#: the list), the spine is compacted in one slice — O(1) amortized.
_COMPACT_THRESHOLD = 1024

#: Most recent listener exceptions retained for inspection.  Bounded so
#: a persistently raising listener — the exact failure dispatch
#: isolation is built to survive — cannot grow a long-running session's
#: memory without limit (exceptions pin their tracebacks).
_MAX_LISTENER_ERRORS = 256


@dataclass(frozen=True)
class ListenerError:
    """One exception a listener raised during dispatch (isolated)."""

    time: float
    listener: Callable[[FloorEvent], None]
    error: Exception


class Subscription:
    """One registered listener plus its kind/member/group filters.

    Created by :meth:`EventBus.subscribe`; ``None`` for a filter
    dimension means "match everything" on that dimension.
    """

    __slots__ = ("listener", "kinds", "members", "groups", "active")

    def __init__(
        self,
        listener: Callable[[FloorEvent], None],
        kinds: frozenset[EventKind] | None,
        members: frozenset[str] | None,
        groups: frozenset[str] | None,
    ) -> None:
        self.listener = listener
        self.kinds = kinds
        self.members = members
        self.groups = groups
        #: Cleared on unsubscribe so an in-flight dispatch skips it.
        self.active = True

    def matches(self, event: FloorEvent) -> bool:
        """Whether this subscription wants to observe ``event``."""
        if self.kinds is not None and event.kind not in self.kinds:
            return False
        if self.members is not None and event.member not in self.members:
            return False
        if self.groups is not None and event.group not in self.groups:
            return False
        return True


def _normalize_kinds(kinds) -> frozenset[EventKind] | None:
    if kinds is None:
        return None
    if isinstance(kinds, EventKind):
        kinds = (kinds,)
    normalized = frozenset(kinds)
    strays = [kind for kind in normalized if not isinstance(kind, EventKind)]
    if strays:
        raise EventBusError(
            f"kinds filter must contain EventKind values, got {strays!r}"
        )
    return normalized


def _normalize_names(names, label: str) -> frozenset[str] | None:
    if names is None:
        return None
    if isinstance(names, str):
        names = (names,)
    normalized = frozenset(names)
    strays = [name for name in normalized if not isinstance(name, str)]
    if strays:
        raise EventBusError(
            f"{label} filter must contain strings, got {strays!r}"
        )
    return normalized


class EventBus:
    """Append-only, indexed event history with filtered subscriptions.

    Every query helper runs off indexes instead of full scans, and
    :meth:`subscribe` takes optional kind/member/group filters.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise EventBusError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        #: Events evicted by the bounded ring mode (0 when unbounded).
        self.evicted = 0
        #: The most recent listener exceptions (isolated per dispatch;
        #: bounded to the last ``_MAX_LISTENER_ERRORS``).
        #: :attr:`listener_error_count` counts every one ever raised.
        self.listener_errors: deque[ListenerError] = deque(
            maxlen=_MAX_LISTENER_ERRORS
        )
        self.listener_error_count = 0
        #: Metadata loaded alongside a persisted transcript (see
        #: :meth:`load`); empty for a live bus.
        self.meta: dict[str, Any] = {}
        self._events: list[FloorEvent] = []
        self._times: list[float] = []
        self._start = 0  # first live index into the spine lists
        self._monotonic = True
        self._max_time = float("-inf")
        self._by_kind: dict[EventKind, deque[FloorEvent]] = {}
        self._by_member: dict[str, deque[FloorEvent]] = {}
        self._by_group: dict[str, deque[FloorEvent]] = {}
        self._subscriptions: list[Subscription] = []
        self._pending: deque[FloorEvent] = deque()
        self._dispatching = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def append(
        self,
        time: float,
        kind: EventKind,
        member: str,
        group: str,
        detail: str = "",
        data: Mapping[str, Any] | None = None,
    ) -> FloorEvent:
        """Record one event; returns the stored entry.

        Listeners run synchronously after the event is stored, so a
        listener reading the log sees the event it was called for.
        ``data`` carries the structured payload fields
        (:meth:`~repro.events.types.FloorEvent.payload`).
        """
        return self.publish(FloorEvent(time, kind, member, group, detail, data))

    def publish(self, event: FloorEvent) -> FloorEvent:
        """Store an already-built event and dispatch it to listeners.

        Re-entrant: an event published from inside a listener is stored
        immediately (global order is the storage order) and fanned out
        once the current dispatch finishes.
        """
        self._store(event)
        self._pending.append(event)
        if self._dispatching:
            return event
        self._dispatching = True
        try:
            while self._pending:
                self._dispatch(self._pending.popleft())
        finally:
            self._dispatching = False
        return event

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(
        self,
        listener: Callable[[FloorEvent], None],
        kinds: Iterable[EventKind] | EventKind | None = None,
        members: Iterable[str] | str | None = None,
        groups: Iterable[str] | str | None = None,
    ) -> Callable[[], None]:
        """Register a listener for future appends; returns an
        idempotent unsubscribe callable.

        ``kinds`` / ``members`` / ``groups`` restrict which events the
        listener observes (``None`` = all); filters are applied by the
        bus, so a monitor watching floor events no longer pays the
        fanout for every heartbeat the transcript records.  Removal is
        by subscription identity: registering two *equal* callables and
        unsubscribing one never detaches the other.
        """
        subscription = Subscription(
            listener,
            _normalize_kinds(kinds),
            _normalize_names(members, "members"),
            _normalize_names(groups, "groups"),
        )
        self._subscriptions.append(subscription)

        def unsubscribe() -> None:
            subscription.active = False
            self._subscriptions = [
                existing for existing in self._subscriptions
                if existing is not subscription
            ]

        return unsubscribe

    @property
    def subscriptions(self) -> tuple[Subscription, ...]:
        """The currently registered subscriptions (a snapshot)."""
        return tuple(self._subscriptions)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events) - self._start

    def __iter__(self) -> Iterator[FloorEvent]:
        return iter(self._events[self._start:])

    def of_kind(self, kind: EventKind) -> list[FloorEvent]:
        """All events of one kind, in order — O(k)."""
        return list(self._by_kind.get(kind, ()))

    def for_member(self, member: str) -> list[FloorEvent]:
        """All events attributed to one member — O(k)."""
        return list(self._by_member.get(member, ()))

    def for_group(self, group: str) -> list[FloorEvent]:
        """All events of one group — O(k)."""
        return list(self._by_group.get(group, ()))

    def count(self, kind: EventKind | None = None) -> int:
        """How many live events (of one kind, when given) — O(1)."""
        if kind is None:
            return len(self)
        return len(self._by_kind.get(kind, ()))

    def members(self) -> list[str]:
        """Every member name the transcript attributes events to."""
        return sorted(self._by_member)

    def groups(self) -> list[str]:
        """Every group id the transcript contains events for."""
        return sorted(self._by_group)

    def between(self, start: float, end: float) -> list[FloorEvent]:
        """Events with ``start <= time <= end`` (inclusive).

        O(log n + k) on the monotonic spine the virtual clock produces;
        a bus that saw out-of-order timestamps falls back to a scan.
        """
        if self._monotonic:
            lo = bisect_left(self._times, start, self._start)
            hi = bisect_right(self._times, end, self._start)
            return self._events[lo:hi]
        return [
            event for event in self._events[self._start:]
            if start <= event.time <= end
        ]

    def tail(self, count: int = 10) -> list[FloorEvent]:
        """The most recent ``count`` events."""
        if count <= 0:
            return []
        first = max(self._start, len(self._events) - count)
        return self._events[first:]

    def metrics(self, members=None, mode: str = "exact"):
        """Fold the *retained* events into a
        :class:`~repro.metrics.fold.MetricsFold` and return it.

        Convenience for post-hoc analysis of a bus you did not
        subscribe a fold to from birth.  On a ring-bounded bus evicted
        events are gone, so the fold only covers what survived — for
        all-time numbers, subscribe a live fold instead (that is what
        sessions do; see :mod:`repro.metrics`).
        """
        from ..metrics.fold import MetricsFold

        fold = MetricsFold(mode=mode, members=members)
        for event in self:
            fold.add(event)
        return fold

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path, meta: Mapping[str, Any] | None = None) -> Path:
        """Persist the live events as a schema-versioned JSONL
        transcript (:mod:`repro.events.transcript`); returns the path."""
        from .transcript import save_transcript

        return save_transcript(path, list(self), meta=meta)

    @classmethod
    def load(cls, path, capacity: int | None = None) -> "EventBus":
        """Rebuild a bus from a saved transcript.

        The document's metadata lands on :attr:`meta`; events replay
        through :meth:`publish`, so a subclass's indexes stay honest.
        """
        from .transcript import load_transcript

        document = load_transcript(path)
        bus = cls(capacity=capacity)
        for event in document.events:
            bus.publish(event)
        bus.meta = dict(document.meta)
        return bus

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _store(self, event: FloorEvent) -> None:
        self._events.append(event)
        self._times.append(event.time)
        if event.time >= self._max_time:
            self._max_time = event.time
        else:
            self._monotonic = False
        # A new deque only on an index miss: ``setdefault`` would build
        # three per event.
        try:
            self._by_kind[event.kind].append(event)
        except KeyError:
            self._by_kind[event.kind] = deque((event,))
        try:
            self._by_member[event.member].append(event)
        except KeyError:
            self._by_member[event.member] = deque((event,))
        try:
            self._by_group[event.group].append(event)
        except KeyError:
            self._by_group[event.group] = deque((event,))
        if self.capacity is not None and len(self) > self.capacity:
            self._evict()

    def _evict(self) -> None:
        # The globally oldest event heads every index deque it joined,
        # because all inserts are appends — eviction is three poplefts.
        oldest = self._events[self._start]
        self._start += 1
        self.evicted += 1
        for index, key in (
            (self._by_kind, oldest.kind),
            (self._by_member, oldest.member),
            (self._by_group, oldest.group),
        ):
            bucket = index[key]
            bucket.popleft()
            if not bucket:
                del index[key]
        if (
            self._start >= _COMPACT_THRESHOLD
            and self._start * 2 >= len(self._events)
        ):
            del self._events[:self._start]
            del self._times[:self._start]
            self._start = 0

    def _dispatch(self, event: FloorEvent) -> None:
        # Timing-plane hook: one global read when profiling is off —
        # this is the hottest per-event seam in the repo.
        profiler = _timing.active()
        if profiler is None:
            self._fan_out(event)
        else:
            with profiler.span("bus.dispatch"):
                self._fan_out(event)

    def _fan_out(self, event: FloorEvent) -> None:
        for subscription in tuple(self._subscriptions):
            if not subscription.active or not subscription.matches(event):
                continue
            try:
                subscription.listener(event)
            except Exception as error:  # noqa: BLE001 - isolation is the point
                self.listener_error_count += 1
                self.listener_errors.append(
                    ListenerError(
                        time=event.time,
                        listener=subscription.listener,
                        error=error,
                    )
                )
