"""Tests for typed event payloads and event serialization."""

import copy
import math
import pickle
import typing
from dataclasses import FrozenInstanceError, dataclass, field
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EventBusError
from repro.events import (
    EventKind,
    FloorEvent,
    InvitePayload,
    InviteResponsePayload,
    ModeChangePayload,
    OutcomePayload,
    RequestPayload,
    TokenPassPayload,
)


class TestPayloads:
    def test_request_payload_from_data(self):
        event = FloorEvent(1.0, EventKind.REQUEST, "a", "g",
                           "equal_control", data={"mode": "equal_control"})
        assert event.payload() == RequestPayload(mode="equal_control")

    def test_request_payload_legacy_detail(self):
        event = FloorEvent(1.0, EventKind.REQUEST, "a", "g", "free_access")
        assert event.payload() == RequestPayload(mode="free_access")

    def test_queue_payload_carries_position(self):
        event = FloorEvent(
            2.0, EventKind.QUEUE, "b", "g", "floor held by 'a'",
            data={"reason": "floor held by 'a'", "mode": "equal_control",
                  "position": 3},
        )
        payload = event.payload()
        assert payload == OutcomePayload(
            reason="floor held by 'a'", mode="equal_control", position=3
        )

    def test_outcome_payload_legacy_detail_becomes_reason(self):
        event = FloorEvent(2.0, EventKind.DENY, "b", "g", "not a member")
        assert event.payload() == OutcomePayload(reason="not a member")

    def test_token_pass_payload(self):
        with_data = FloorEvent(3.0, EventKind.TOKEN_PASS, "a", "g", "b",
                               data={"to": "b"})
        legacy = FloorEvent(3.0, EventKind.TOKEN_PASS, "a", "g", "b")
        cleared = FloorEvent(3.0, EventKind.TOKEN_PASS, "a", "g", "",
                             data={"to": None})
        assert with_data.payload() == TokenPassPayload(to_member="b")
        assert legacy.payload() == TokenPassPayload(to_member="b")
        assert cleared.payload() == TokenPassPayload(to_member=None)

    def test_mode_change_payload_from_to(self):
        event = FloorEvent(
            4.0, EventKind.MODE_CHANGE, "chair", "g", "equal_control",
            data={"from": "free_access", "to": "equal_control"},
        )
        assert event.payload() == ModeChangePayload(
            to_mode="equal_control", from_mode="free_access"
        )

    def test_mode_change_legacy_has_unknown_from(self):
        event = FloorEvent(4.0, EventKind.MODE_CHANGE, "chair", "g",
                           "equal_control")
        assert event.payload() == ModeChangePayload(
            to_mode="equal_control", from_mode=None
        )

    def test_invite_payloads(self):
        invite = FloorEvent(5.0, EventKind.INVITE, "a", "g", "b",
                            data={"invitee": "b"})
        accept = FloorEvent(6.0, EventKind.INVITE_RESPONSE, "b", "g",
                            "accept", data={"accepted": True})
        decline = FloorEvent(6.0, EventKind.INVITE_RESPONSE, "b", "g",
                             "decline")
        assert invite.payload() == InvitePayload(invitee="b")
        assert accept.payload() == InviteResponsePayload(accepted=True)
        assert decline.payload() == InviteResponsePayload(accepted=False)

    def test_kinds_without_payload_return_none(self):
        for kind in (EventKind.JOIN, EventKind.LEAVE, EventKind.SUSPEND,
                     EventKind.RESUME):
            assert FloorEvent(1.0, kind, "a", "g").payload() is None


class TestFloorEventRecord:
    def test_data_is_immutable(self):
        event = FloorEvent(1.0, EventKind.REQUEST, "a", "g",
                           data={"mode": "free_access"})
        with pytest.raises(TypeError):
            event.data["mode"] = "hacked"

    def test_events_stay_hashable(self):
        plain = FloorEvent(1.0, EventKind.JOIN, "a", "g")
        with_data = FloorEvent(1.0, EventKind.REQUEST, "a", "g",
                               data={"mode": "free_access"})
        assert len({plain, with_data}) == 2

    def test_dict_round_trip(self):
        original = FloorEvent(
            2.5, EventKind.QUEUE, "bob", "session", "floor held",
            data={"reason": "floor held", "mode": "equal_control",
                  "position": 2},
        )
        assert FloorEvent.from_dict(original.to_dict()) == original

    def test_dict_round_trip_without_data(self):
        original = FloorEvent(1.0, EventKind.JOIN, "a", "g")
        restored = FloorEvent.from_dict(original.to_dict())
        assert restored == original
        assert restored.data is None

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(EventBusError, match="unknown event kind"):
            FloorEvent.from_dict(
                {"time": 1.0, "kind": "nope", "member": "a", "group": "g"}
            )

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(EventBusError, match="missing fields"):
            FloorEvent.from_dict({"time": 1.0, "kind": "join"})

    def test_from_dict_rejects_bad_time_and_data(self):
        with pytest.raises(EventBusError, match="numeric"):
            FloorEvent.from_dict(
                {"time": "soon", "kind": "join", "member": "a", "group": "g"}
            )
        with pytest.raises(EventBusError, match="data must be a mapping"):
            FloorEvent.from_dict(
                {"time": 1.0, "kind": "join", "member": "a", "group": "g",
                 "data": [1, 2]}
            )

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(EventBusError, match="must be a mapping"):
            FloorEvent.from_dict([1.0, "join"])

    @pytest.mark.parametrize(
        "time", [float("nan"), float("inf"), float("-inf"), "nan", "-Infinity"]
    )
    def test_from_dict_rejects_non_finite_time(self, time):
        expected = repr(float(time))
        with pytest.raises(EventBusError) as raised:
            FloorEvent.from_dict(
                {"time": time, "kind": "join", "member": "a", "group": "g"}
            )
        assert str(raised.value) == f"event time must be finite, got {expected}"


def reference_from_dict(record):
    """``FloorEvent.from_dict`` as it was before the single-body
    rewrite, kept as the oracle the rewrite must match."""
    if not isinstance(record, typing.Mapping):
        raise EventBusError(f"event record must be a mapping, got {record!r}")
    missing = [key for key in ("time", "kind", "member", "group") if key not in record]
    if missing:
        raise EventBusError(f"event record is missing fields {missing!r}")
    try:
        kind = EventKind(record["kind"])
    except ValueError:
        raise EventBusError(
            f"unknown event kind {record['kind']!r}"
        ) from None
    data = record.get("data")
    if data is not None and not isinstance(data, typing.Mapping):
        raise EventBusError(
            f"event data must be a mapping, got {data!r}"
        )
    try:
        time = float(record["time"])
    except (TypeError, ValueError):
        raise EventBusError(
            f"event time must be numeric, got {record['time']!r}"
        ) from None
    return FloorEvent(
        time=time,
        kind=kind,
        member=str(record["member"]),
        group=str(record["group"]),
        detail=str(record.get("detail", "")),
        data=data,
    )


def outcome(build, record):
    """What ``build(record)`` gives: an event, or the error it raised."""
    try:
        return build(record)
    except Exception as error:
        return type(error), str(error)


_kinds = st.one_of(
    st.sampled_from([kind.value for kind in EventKind]),
    st.sampled_from(list(EventKind)),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.none(),
    st.integers(),
)
_times = st.one_of(
    st.floats(),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.just(10**400),
    st.booleans(),
    st.floats().map(repr),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["soon", "", " 2.5 ", "1e999", "-inf", "nan", "0x10"]),
    st.none(),
    st.lists(st.integers(), max_size=1),
)
_scalars = st.one_of(
    st.text(max_size=6), st.integers(), st.none(), st.booleans(),
    st.floats(allow_nan=False),
)
_mappings = st.dictionaries(st.text(max_size=4), _scalars, max_size=3)
_data = st.one_of(
    st.none(),
    _mappings,
    _mappings.map(MappingProxyType),
    st.lists(st.integers(), max_size=2),
    st.text(max_size=4),
)
_fields = {
    "time": _times,
    "kind": _kinds,
    "member": _scalars,
    "group": _scalars,
}
_optional = {"detail": _scalars, "data": _data}
_records = st.one_of(
    st.fixed_dictionaries(_fields, optional=_optional),
    st.fixed_dictionaries({}, optional={**_fields, **_optional}),
)
_inputs = st.one_of(
    _records,
    _records.map(MappingProxyType),
    st.lists(st.integers(), max_size=2),
    st.none(),
    st.text(max_size=4),
)


class TestFromDictMatchesReference:
    @settings(max_examples=600, deadline=None)
    @given(record=_inputs)
    def test_same_event_or_same_error(self, record):
        expected = outcome(reference_from_dict, record)
        actual = outcome(FloorEvent.from_dict, record)
        if isinstance(expected, FloorEvent) and not math.isfinite(expected.time):
            # The one intended difference: non-finite times are refused.
            expected = (
                EventBusError,
                f"event time must be finite, got {expected.time!r}",
            )
        assert actual == expected
        if isinstance(actual, FloorEvent):
            assert type(actual.time) is float
            assert repr(actual.time) == repr(expected.time)
            assert actual.kind is expected.kind
            assert type(actual.data) is type(expected.data)


@dataclass(frozen=True)
class ReferenceFloorEvent:
    """``FloorEvent`` as the frozen dataclass it was before the slotted
    record, kept as the oracle the record must match."""

    __qualname__ = "FloorEvent"

    time: float
    kind: EventKind
    member: str
    group: str
    detail: str = ""
    data: typing.Mapping[str, typing.Any] | None = field(default=None, hash=False)

    def __post_init__(self) -> None:
        if self.data is not None and not isinstance(self.data, MappingProxyType):
            object.__setattr__(self, "data", MappingProxyType(dict(self.data)))

    payload = FloorEvent.payload
    to_dict = FloorEvent.to_dict


_event_data = st.one_of(
    st.none(),
    st.just({}),
    st.just({"mode": "equal_control"}),
    st.just({"reason": None, "mode": "free_access", "position": 2}),
    st.just({"to": "b", "nested": {"path": [1, {"deep": True}]}}),
    st.just(MappingProxyType({"mode": "equal_control"})),
    st.dictionaries(st.sampled_from(["mode", "to", "reason", "accepted"]),
                    st.one_of(st.none(), st.booleans(), st.sampled_from("ab")),
                    max_size=2),
)
#: Small pools, so generated pairs often share fields and equality is
#: exercised both ways; ``math.nan`` is one object, equal to itself only
#: through the identity check tuple comparison makes.
_event_args = st.tuples(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, math.nan]),
    st.sampled_from(list(EventKind)),
    st.sampled_from(["a", "b"]),
    st.sampled_from(["session", "session/sub0"]),
    st.sampled_from(["", "b", "equal_control"]),
    _event_data,
)


def _pairs(args):
    return FloorEvent(*args), ReferenceFloorEvent(*args)


class TestRecordMatchesDataclass:
    @settings(max_examples=300, deadline=None)
    @given(arguments=st.lists(_event_args, min_size=1, max_size=6))
    def test_same_surface_as_the_dataclass(self, arguments):
        events = [_pairs(args) for args in arguments]
        for event, reference in events:
            assert repr(event) == repr(reference)
            assert event.to_dict() == reference.to_dict()
            assert event.payload() == reference.payload()
            assert hash(event) == hash(reference)
            assert type(event.data) is type(reference.data)
            assert event.__match_args__ == reference.__match_args__
            # Two classes never compare equal, as with two dataclasses.
            assert event != reference and reference != event
        for event, reference in events:
            for other, other_reference in events:
                assert (event == other) is (reference == other_reference)
                assert (event != other) is (reference != other_reference)

    @settings(max_examples=100, deadline=None)
    @given(args=_event_args,
           name=st.sampled_from(["time", "kind", "member", "group",
                                 "detail", "data", "extra"]))
    def test_frozen_like_the_dataclass(self, args, name):
        for record in _pairs(args):
            with pytest.raises(FrozenInstanceError) as assigned:
                setattr(record, name, 1)
            assert str(assigned.value) == f"cannot assign to field {name!r}"
            with pytest.raises(FrozenInstanceError) as deleted:
                delattr(record, name)
            assert str(deleted.value) == f"cannot delete field {name!r}"

    def test_keyword_and_positional_construction_agree(self):
        positional = FloorEvent(1.0, EventKind.GRANT, "a", "g", "x", {"k": 1})
        keywords = FloorEvent(data={"k": 1}, detail="x", group="g",
                              member="a", kind=EventKind.GRANT, time=1.0)
        assert positional == keywords
        assert FloorEvent(1.0, EventKind.JOIN, "a", "g").detail == ""

    def test_data_proxy_is_reused_not_rewrapped(self):
        proxy = MappingProxyType({"mode": "equal_control"})
        assert FloorEvent(1.0, EventKind.REQUEST, "a", "g", data=proxy).data is proxy

    def test_data_is_a_copy_of_the_callers_dict(self):
        data = {"mode": "equal_control"}
        event = FloorEvent(1.0, EventKind.REQUEST, "a", "g", data=data)
        data["mode"] = "free_access"
        assert event.data == {"mode": "equal_control"}


class TestRecordCopies:
    """Events with ``data`` pickle and deep-copy: the dataclass record
    could not (``cannot pickle 'mappingproxy' object``)."""

    EVENTS = (
        FloorEvent(1.0, EventKind.JOIN, "a", "g"),
        FloorEvent(2.0, EventKind.QUEUE, "b", "g", "floor held",
                   data={"reason": "floor held", "position": 2,
                         "nested": {"path": [1, 2]}}),
        FloorEvent(3.0, EventKind.TOKEN_PASS, "a", "g", "b", data={}),
    )

    @pytest.mark.parametrize("event", EVENTS, ids=lambda event: event.kind.value)
    @pytest.mark.parametrize("copier", [
        pytest.param(lambda event: pickle.loads(pickle.dumps(event)), id="pickle"),
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(copy.copy, id="copy"),
    ])
    def test_round_trip(self, event, copier):
        restored = copier(event)
        assert restored == event
        assert hash(restored) == hash(event)
        assert repr(restored) == repr(event)
        assert type(restored.data) is type(event.data)
        if event.data is not None:
            with pytest.raises(TypeError):
                restored.data["reason"] = "changed"
