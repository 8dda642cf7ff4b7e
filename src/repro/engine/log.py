"""Columnar event storage for the array-compiled engine.

The reference engines allocate one frozen :class:`~repro.events.types.FloorEvent`
(plus a ``MappingProxyType`` payload) per event as the simulation runs.
:class:`ColumnarLog` stores the same information as parallel flat
columns instead — a kind code, an interned member id, a group id and
two auxiliary integers per event — and only materializes
:class:`FloorEvent` objects when somebody actually reads the log
(:meth:`events`).  The hot loop therefore appends a handful of machine
integers instead of building an object graph, which is where most of
the compiled engine's speedup comes from.

Byte-identity contract
----------------------
:meth:`events` reconstructs, field for field, the exact events the
reference engine would have logged for the same operation sequence —
including derived strings such as the queue reason
``f"floor held by {holder!r}"`` and the optional ``position`` payload
entry — so a transcript saved from a compiled run is byte-identical
to the reference transcript (``repro replay`` is the oracle).

Ring mode mirrors :class:`~repro.events.bus.EventBus`: with a finite
``capacity`` the log keeps the most recent ``capacity`` events, counts
each drop in :attr:`evicted`, and compacts its columns amortized so a
bounded log never grows without bound.
"""

from __future__ import annotations

from array import array

from ..events.types import EventKind, FloorEvent

__all__ = ["ColumnarLog"]

# Kind codes (column values) for the event vocabulary the compiled
# policies emit.  DENY/ABORT/SUSPEND never occur under the compiled
# engines' conventions (members are auto-joined and resources are
# generous by construction), so they have no codes.
K_JOIN = 0
K_MODE_CHANGE = 1
K_REQUEST = 2
K_GRANT = 3
K_QUEUE = 4
K_TOKEN_PASS = 5
K_INVITE = 6
K_INVITE_RESPONSE = 7

#: Compaction threshold, mirroring ``repro.events.bus._COMPACT_THRESHOLD``.
_COMPACT_THRESHOLD = 1024


class ColumnarLog:
    """Flat-column event log with lazy :class:`FloorEvent` materialization.

    Parameters
    ----------
    member_names:
        The owning engine's intern table (id -> member name).  Shared by
        reference, not copied, so names interned after an event was
        appended still resolve at materialization time.
    group_names:
        Group id -> group id string (``0`` is always the session group).
    mode_value:
        The wire value recorded as ``data["mode"]`` on request/outcome
        events (an FCM mode value or a baseline policy name).
    capacity:
        Ring bound; ``None`` keeps every event.
    """

    __slots__ = (
        "member_names", "group_names", "mode_value", "capacity", "evicted",
        "_times", "_kinds", "_members", "_groups", "_aux_a", "_aux_b", "_start",
    )

    def __init__(
        self,
        member_names: list[str],
        group_names: list[str],
        mode_value: str,
        capacity: int | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive or None, got {capacity!r}")
        self.member_names = member_names
        self.group_names = group_names
        self.mode_value = mode_value
        self.capacity = capacity
        self.evicted = 0
        self._times = array("d")
        self._kinds = bytearray()
        self._members = array("q")
        self._groups = bytearray()
        self._aux_a = array("q")
        self._aux_b = array("q")
        self._start = 0

    def __len__(self) -> int:
        return len(self._kinds) - self._start

    def append(
        self,
        time: float,
        kind: int,
        member: int,
        group: int = 0,
        aux_a: int = -1,
        aux_b: int = -1,
    ) -> None:
        """Append one event as six column writes (the hot path)."""
        self._times.append(time)
        self._kinds.append(kind)
        self._members.append(member)
        self._groups.append(group)
        self._aux_a.append(aux_a)
        self._aux_b.append(aux_b)
        if self.capacity is not None and len(self._kinds) - self._start > self.capacity:
            self._start += 1
            self.evicted += 1
            start = self._start
            if start >= _COMPACT_THRESHOLD and start * 2 >= len(self._kinds):
                del self._times[:start]
                del self._kinds[:start]
                del self._members[:start]
                del self._groups[:start]
                del self._aux_a[:start]
                del self._aux_b[:start]
                self._start = 0

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def events(self) -> list[FloorEvent]:
        """The retained events as reference-identical :class:`FloorEvent`
        objects (oldest first)."""
        return [self._materialize(i) for i in range(self._start, len(self._kinds))]

    def __iter__(self):
        return iter(self.events())

    def _materialize(self, index: int) -> FloorEvent:
        code = self._kinds[index]
        time = self._times[index]
        member = self.member_names[self._members[index]]
        group = self.group_names[self._groups[index]]
        a = self._aux_a[index]
        b = self._aux_b[index]
        mode = self.mode_value
        if code == K_REQUEST:
            return FloorEvent(time, EventKind.REQUEST, member, group, mode,
                              data={"mode": mode})
        if code == K_GRANT:
            return FloorEvent(time, EventKind.GRANT, member, group, mode,
                              data={"reason": None, "mode": mode})
        if code == K_QUEUE:
            reason = f"floor held by {self.member_names[a]!r}"
            data: dict[str, object] = {"reason": reason, "mode": mode}
            if b >= 0:
                data["position"] = b
            return FloorEvent(time, EventKind.QUEUE, member, group, reason, data=data)
        if code == K_JOIN:
            return FloorEvent(time, EventKind.JOIN, member, group)
        if code == K_TOKEN_PASS:
            recipient = self.member_names[a] if a >= 0 else None
            return FloorEvent(time, EventKind.TOKEN_PASS, member, group,
                              recipient or "", data={"to": recipient})
        if code == K_MODE_CHANGE:
            return FloorEvent(time, EventKind.MODE_CHANGE, member, group, mode,
                              data={"from": "free_access", "to": mode})
        if code == K_INVITE:
            invitee = self.member_names[a]
            return FloorEvent(time, EventKind.INVITE, member, group, invitee,
                              data={"invitee": invitee})
        # K_INVITE_RESPONSE — the compiled conventions always accept.
        return FloorEvent(time, EventKind.INVITE_RESPONSE, member, group,
                          "accept", data={"accepted": True})
