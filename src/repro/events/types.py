"""Typed floor-control events: the wire record and its payloads.

:class:`FloorEvent` stays the compact wire record every layer already
logs (time, kind, member, group, free-text ``detail``), but it now
carries an optional structured ``data`` mapping and a :meth:`~
FloorEvent.payload` accessor that returns a *typed payload dataclass*
per :class:`EventKind` — the grant reason, the queue position, the
token recipient, the mode-change from/to pair — so consumers stop
parsing detail strings.  ``to_dict``/``from_dict`` round-trip an event
losslessly, which is what transcript persistence
(:mod:`repro.events.transcript`) is built on.

Events produced by older code (or hand-built test logs) carry no
``data``; ``payload()`` then falls back to parsing the legacy detail
string, so both generations of transcript remain queryable through the
same typed surface.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from math import isfinite
from reprlib import recursive_repr
from types import MappingProxyType
from typing import Any

from ..errors import EventBusError

__all__ = [
    "EventKind",
    "FloorEvent",
    "EventPayload",
    "RequestPayload",
    "OutcomePayload",
    "TokenPassPayload",
    "ModeChangePayload",
    "InvitePayload",
    "InviteResponsePayload",
]


class EventKind(Enum):
    """Every kind of entry a session transcript can contain."""

    REQUEST = "request"
    GRANT = "grant"
    QUEUE = "queue"
    DENY = "deny"
    ABORT = "abort"
    TOKEN_PASS = "token_pass"
    SUSPEND = "suspend"
    RESUME = "resume"
    JOIN = "join"
    LEAVE = "leave"
    INVITE = "invite"
    INVITE_RESPONSE = "invite_response"
    MODE_CHANGE = "mode_change"
    DISCONNECT = "disconnect"
    RECONNECT = "reconnect"


#: ``EventKind`` by its string value: a plain dict lookup where
#: ``EventKind(value)`` goes through ``Enum.__call__``.
_KINDS_BY_VALUE = {kind.value: kind for kind in EventKind}


@dataclass(frozen=True)
class EventPayload:
    """Base class of every typed event payload."""


@dataclass(frozen=True)
class RequestPayload(EventPayload):
    """A ``REQUEST``: the floor mode the request was made under."""

    mode: str | None = None


@dataclass(frozen=True)
class OutcomePayload(EventPayload):
    """A ``GRANT``/``QUEUE``/``DENY``/``ABORT`` arbitration outcome.

    ``reason`` is the arbitrator's explanation (``None`` when the
    outcome needed none), ``mode`` the floor mode arbitrated under, and
    ``position`` the 1-based wait-queue slot of a ``QUEUE`` outcome.
    """

    reason: str | None = None
    mode: str | None = None
    position: int | None = None


@dataclass(frozen=True)
class TokenPassPayload(EventPayload):
    """A ``TOKEN_PASS``: who received the floor (``None`` = cleared)."""

    to_member: str | None = None


@dataclass(frozen=True)
class ModeChangePayload(EventPayload):
    """A ``MODE_CHANGE``: the group's previous and new floor modes.

    ``from_mode`` is ``None`` on events recorded before the structured
    ``data`` field existed (the legacy detail only named the new mode).
    """

    to_mode: str | None = None
    from_mode: str | None = None


@dataclass(frozen=True)
class InvitePayload(EventPayload):
    """An ``INVITE``: who was invited into the subgroup."""

    invitee: str | None = None


@dataclass(frozen=True)
class InviteResponsePayload(EventPayload):
    """An ``INVITE_RESPONSE``: whether the invitee accepted."""

    accepted: bool = False


def _str_or_none(data: Mapping[str, Any], key: str) -> str | None:
    value = data.get(key)
    return None if value is None else str(value)


#: The record's fields, in constructor order.
_FIELDS = ("time", "kind", "member", "group", "detail", "data")


class FloorEvent:
    """One timestamped entry in the session transcript.

    ``detail`` remains the human-readable free-text column the CLI
    prints; ``data`` (optional, immutable) carries the structured
    fields :meth:`payload` exposes as a typed dataclass.

    A ``__slots__`` record with a frozen dataclass's surface: keyword
    or positional construction, equality over the class and every field
    (``data`` included), a hash that leaves ``data`` out, the dataclass
    ``repr``, and :class:`~dataclasses.FrozenInstanceError` on any
    assignment.  It is built once per logged or loaded event, so
    ``__init__`` stores each field through its slot descriptor, the one
    write path ``__setattr__`` does not refuse.
    """

    __slots__ = _FIELDS
    __match_args__ = _FIELDS

    time: float
    kind: EventKind
    member: str
    group: str
    detail: str
    data: Mapping[str, Any] | None

    def __init__(
        self,
        time: float,
        kind: EventKind,
        member: str,
        group: str,
        detail: str = "",
        data: Mapping[str, Any] | None = None,
    ) -> None:
        _set_time(self, time)
        _set_kind(self, kind)
        _set_member(self, member)
        _set_group(self, group)
        _set_detail(self, detail)
        if data is not None and type(data) is not MappingProxyType:
            data = MappingProxyType(dict(data))
        _set_data(self, data)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.time, self.kind, self.member, self.group, self.detail,
            self.data,
        ) == (
            other.time, other.kind, other.member, other.group, other.detail,
            other.data,
        )

    def __hash__(self) -> int:
        return hash((self.time, self.kind, self.member, self.group, self.detail))

    @recursive_repr()
    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(time={self.time!r}, "
            f"kind={self.kind!r}, member={self.member!r}, "
            f"group={self.group!r}, detail={self.detail!r}, "
            f"data={self.data!r})"
        )

    def __reduce__(self):
        # ``data`` travels as a plain dict: a mappingproxy cannot be
        # pickled, and the constructor wraps it again.
        data = None if self.data is None else dict(self.data)
        return (
            type(self),
            (self.time, self.kind, self.member, self.group, self.detail, data),
        )

    # ------------------------------------------------------------------
    # Typed payloads
    # ------------------------------------------------------------------
    def payload(self) -> EventPayload | None:
        """The typed payload of this event, or ``None`` for kinds that
        carry no structured fields (join/leave/suspend/resume/...).

        Prefers the structured ``data`` mapping; events recorded before
        it existed are parsed from the legacy ``detail`` string.
        """
        parser = _PAYLOAD_PARSERS.get(self.kind)
        return None if parser is None else parser(self)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict that :meth:`from_dict` restores exactly."""
        record: dict[str, Any] = {
            "time": self.time,
            "kind": self.kind.value,
            "member": self.member,
            "group": self.group,
            "detail": self.detail,
        }
        if self.data is not None:
            record["data"] = dict(self.data)
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "FloorEvent":
        """Rebuild an event from :meth:`to_dict` output.

        Raises
        ------
        EventBusError
            On a malformed record (missing fields, unknown kind, a
            non-mapping ``data`` block, or a time that is not a finite
            number).
        """
        # ``type(...) is dict`` first: decoded transcripts hand in plain
        # dicts, and the ABC check is the slow one.
        if type(record) is not dict and not isinstance(record, Mapping):
            raise EventBusError(f"event record must be a mapping, got {record!r}")
        try:
            time = record["time"]
            value = record["kind"]
            member = record["member"]
            group = record["group"]
        except KeyError:
            missing = [
                key for key in ("time", "kind", "member", "group")
                if key not in record
            ]
            raise EventBusError(
                f"event record is missing fields {missing!r}"
            ) from None
        try:
            kind = _KINDS_BY_VALUE[value]
        except (KeyError, TypeError):
            # Members and unhashable values take Enum's own lookup.
            try:
                kind = EventKind(value)
            except ValueError:
                raise EventBusError(f"unknown event kind {value!r}") from None
        data = record.get("data")
        if (
            data is not None
            and type(data) is not dict
            and not isinstance(data, Mapping)
        ):
            raise EventBusError(
                f"event data must be a mapping, got {data!r}"
            )
        if type(time) is not float:
            try:
                time = float(time)
            except (TypeError, ValueError):
                raise EventBusError(
                    f"event time must be numeric, got {time!r}"
                ) from None
        if not isfinite(time):
            raise EventBusError(f"event time must be finite, got {time!r}")
        detail = record.get("detail", "")
        if type(member) is not str:
            member = str(member)
        if type(group) is not str:
            group = str(group)
        if type(detail) is not str:
            detail = str(detail)
        return cls(time, kind, member, group, detail, data)


#: The slot descriptors' setters, bound once for ``FloorEvent.__init__``.
(
    _set_time, _set_kind, _set_member, _set_group, _set_detail, _set_data,
) = (FloorEvent.__dict__[name].__set__ for name in _FIELDS)


def _parse_request(event: FloorEvent) -> RequestPayload:
    if event.data is not None:
        return RequestPayload(mode=_str_or_none(event.data, "mode"))
    return RequestPayload(mode=event.detail or None)


def _parse_outcome(event: FloorEvent) -> OutcomePayload:
    if event.data is not None:
        position = event.data.get("position")
        return OutcomePayload(
            reason=_str_or_none(event.data, "reason"),
            mode=_str_or_none(event.data, "mode"),
            position=None if position is None else int(position),
        )
    # Legacy detail holds ``reason or mode.value``; surface it as the
    # reason (the less lossy of the two readings).
    return OutcomePayload(reason=event.detail or None)


def _parse_token_pass(event: FloorEvent) -> TokenPassPayload:
    if event.data is not None:
        return TokenPassPayload(to_member=_str_or_none(event.data, "to"))
    return TokenPassPayload(to_member=event.detail or None)


def _parse_mode_change(event: FloorEvent) -> ModeChangePayload:
    if event.data is not None:
        return ModeChangePayload(
            to_mode=_str_or_none(event.data, "to"),
            from_mode=_str_or_none(event.data, "from"),
        )
    return ModeChangePayload(to_mode=event.detail or None)


def _parse_invite(event: FloorEvent) -> InvitePayload:
    if event.data is not None:
        return InvitePayload(invitee=_str_or_none(event.data, "invitee"))
    return InvitePayload(invitee=event.detail or None)


def _parse_invite_response(event: FloorEvent) -> InviteResponsePayload:
    if event.data is not None:
        return InviteResponsePayload(accepted=bool(event.data.get("accepted")))
    return InviteResponsePayload(accepted=event.detail == "accept")


_PAYLOAD_PARSERS = {
    EventKind.REQUEST: _parse_request,
    EventKind.GRANT: _parse_outcome,
    EventKind.QUEUE: _parse_outcome,
    EventKind.DENY: _parse_outcome,
    EventKind.ABORT: _parse_outcome,
    EventKind.TOKEN_PASS: _parse_token_pass,
    EventKind.MODE_CHANGE: _parse_mode_change,
    EventKind.INVITE: _parse_invite,
    EventKind.INVITE_RESPONSE: _parse_invite_response,
}
