"""The causal plane: spans derived from virtual-clock event causality.

:class:`CausalTracer` folds a floor-control event stream into
:class:`~repro.trace.spans.Span` windows, pairing openers with closers
the same way :class:`~repro.metrics.fold.MetricsFold` pairs requests
with services — per-member pending deques, one pass, O(members +
outstanding) state.  Everything here is a pure function of the event
stream plus the session seed: no wall clock, no iteration-order
dependence, so the serialized trace of a seeded run is byte-identical
however (and wherever) the run executed.

Span kinds produced:

``floor.wait``
    ``REQUEST`` → the ``GRANT``/``TOKEN_PASS`` that served that
    member (``MetricsFold`` pairing), or the ``DENY``/``ABORT`` that
    refused it; ``attrs.outcome`` says which.  A ``QUEUE`` outcome
    marks the wait ``attrs.queued`` and leaves it open for the later
    grant.
``floor.hold``
    a member holds the floor: ``GRANT`` / ``TOKEN_PASS``-to opens,
    the group's next hand-off (or the holder leaving) closes.
``mode.window``
    one FCM mode's reign over a group: ``MODE_CHANGE`` to
    ``MODE_CHANGE``, ``attrs.mode``.
``member.offline``
    ``DISCONNECT`` → ``RECONNECT`` per member (partition windows ride
    on these, the net layer emits per-member disconnects).
``check.violation``
    instant span (``end == start``) per monitor violation, via
    :meth:`CausalTracer.add_violations`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Mapping

from ..events.types import EventKind, FloorEvent
from .spans import Span, span_id

__all__ = ["CausalTracer"]

#: Outcome event kinds that close (or annotate) a ``floor.wait``.
_REFUSALS = {EventKind.DENY: "denied", EventKind.ABORT: "aborted"}


class CausalTracer:
    """Fold events into causal spans (see module docs).

    ``seed`` binds the stable span ids to the seeded run;
    ``base_attrs`` is stamped onto every span (the fleet uses it to
    tag each session's lane).
    """

    def __init__(
        self,
        seed: int = 0,
        base_attrs: Mapping[str, Any] | None = None,
    ) -> None:
        self.seed = seed
        self.base_attrs = dict(base_attrs or {})
        self._spans: list[Span] = []
        self._seq: dict[str, int] = {}
        # Open state, all keyed on virtual-clock causality:
        self._waits: dict[tuple[str, str], deque[list[Any]]] = {}
        self._holds: dict[str, list[Any]] = {}  # group -> open hold
        self._modes: dict[str, list[Any]] = {}  # group -> open window
        self._offline: dict[str, float] = {}  # member -> since

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        events: Iterable[FloorEvent],
        seed: int = 0,
        base_attrs: Mapping[str, Any] | None = None,
    ) -> "CausalTracer":
        """Trace a finished stream (a transcript, a bus snapshot)."""
        tracer = cls(seed=seed, base_attrs=base_attrs)
        for event in events:
            tracer.add(event)
        return tracer

    def attach(self, bus: Any):
        """Subscribe to a live :class:`~repro.events.bus.EventBus`;
        returns the unsubscribe callable."""
        return bus.subscribe(self.add)

    # ------------------------------------------------------------------
    # Folding
    # ------------------------------------------------------------------
    def add(self, event: FloorEvent) -> None:
        """Fold one event in (a valid ``EventBus.subscribe`` listener)."""
        kind = event.kind
        if kind is EventKind.REQUEST:
            self._open_wait(event)
        elif kind is EventKind.GRANT:
            self._close_wait(event.member, event, "granted")
            self._open_hold(event.group, event.member, event.time, "grant")
        elif kind is EventKind.TOKEN_PASS:
            payload = event.payload()
            recipient = payload.to_member if payload is not None else None
            self._close_hold(event.group, event.time, "token_pass")
            if recipient:
                self._close_wait(recipient, event, "granted")
                self._open_hold(event.group, recipient, event.time, "token")
        elif kind in _REFUSALS:
            self._close_wait(event.member, event, _REFUSALS[kind])
        elif kind is EventKind.QUEUE:
            self._mark_queued(event)
        elif kind is EventKind.MODE_CHANGE:
            self._mode_window(event)
        elif kind is EventKind.DISCONNECT:
            self._offline.setdefault(event.member, event.time)
        elif kind is EventKind.RECONNECT:
            since = self._offline.pop(event.member, None)
            if since is not None:
                self._emit(
                    "member.offline", event.member, event.group,
                    since, event.time,
                )
        elif kind is EventKind.LEAVE:
            hold = self._holds.get(event.group)
            if hold is not None and hold[0] == event.member:
                self._close_hold(event.group, event.time, "leave")

    def add_violations(self, violations: Iterable[Any], group: str = "") -> None:
        """Fold monitor violations in as instant ``check.violation``
        spans (each needs ``.time``, ``.invariant``, ``.detail``)."""
        for violation in violations:
            when = float(getattr(violation, "time", 0.0))
            self._emit(
                "check.violation",
                str(getattr(violation, "invariant", "")),
                group,
                when,
                when,
                attrs={"detail": str(getattr(violation, "detail", ""))},
            )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """Every span so far — closed ones plus the still-open state,
        in a deterministic order (see :mod:`repro.trace.artifact` for
        the canonical serialization order).  Reading does not consume:
        calling twice yields identical spans and ids."""
        out = list(self._spans)
        counters = dict(self._seq)
        for (member, group), waits in self._waits.items():
            for wait in waits:
                out.append(self._make_span(
                    "floor.wait", member, group, wait[0], None,
                    attrs=dict(wait[1]), counters=counters,
                ))
        for group, hold in self._holds.items():
            out.append(self._make_span(
                "floor.hold", hold[0], group, hold[1], None,
                attrs={"via": hold[2]}, counters=counters,
            ))
        for group, window in self._modes.items():
            out.append(self._make_span(
                "mode.window", "", group, window[0], None,
                attrs={"mode": window[1]}, counters=counters,
            ))
        for member, since in self._offline.items():
            out.append(self._make_span(
                "member.offline", member, "", since, None,
                counters=counters,
            ))
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _open_wait(self, event: FloorEvent) -> None:
        key = (event.member, event.group)
        queue = self._waits.get(key)
        if queue is None:
            queue = self._waits[key] = deque()
        queue.append([event.time, {}])

    def _mark_queued(self, event: FloorEvent) -> None:
        queue = self._waits.get((event.member, event.group))
        if queue:
            queue[-1][1]["queued"] = True

    def _close_wait(self, member: str, event: FloorEvent, outcome: str) -> None:
        queue = self._waits.get((member, event.group))
        if not queue:
            return
        start, attrs = queue.popleft()
        attrs = dict(attrs)
        attrs["outcome"] = outcome
        self._emit("floor.wait", member, event.group, start, event.time,
                   attrs=attrs)

    def _open_hold(self, group: str, member: str, when: float, via: str) -> None:
        self._close_hold(group, when, "handoff")
        self._holds[group] = [member, when, via]

    def _close_hold(self, group: str, when: float, how: str) -> None:
        hold = self._holds.pop(group, None)
        if hold is not None:
            self._emit(
                "floor.hold", hold[0], group, hold[1], when,
                attrs={"via": hold[2], "closed_by": how},
            )

    def _mode_window(self, event: FloorEvent) -> None:
        payload = event.payload()
        to_mode = getattr(payload, "to_mode", None) or event.detail
        window = self._modes.pop(event.group, None)
        if window is not None:
            self._emit(
                "mode.window", "", event.group, window[0], event.time,
                attrs={"mode": window[1]},
            )
        self._modes[event.group] = [event.time, str(to_mode)]

    def _emit(
        self,
        name: str,
        member: str,
        group: str,
        start: float,
        end: float | None,
        attrs: Mapping[str, Any] | None = None,
    ) -> None:
        self._spans.append(
            self._make_span(name, member, group, start, end, attrs)
        )

    def _make_span(
        self,
        name: str,
        member: str,
        group: str,
        start: float,
        end: float | None,
        attrs: Mapping[str, Any] | None = None,
        counters: dict[str, int] | None = None,
    ) -> Span:
        key = f"{name}|{group}|{member}"
        seq_map = self._seq if counters is None else counters
        seq = seq_map.get(key, 0)
        seq_map[key] = seq + 1
        # Every span owns its attrs dict; the base attrs (empty outside
        # fleets) are copied only when there are some.
        if self.base_attrs:
            merged = dict(self.base_attrs)
            if attrs:
                merged.update(attrs)
        else:
            merged = dict(attrs) if attrs else {}
        return Span(
            span_id(self.seed, key, seq), name, member, group, start, end,
            seq, merged,
        )
