"""Wire-format tests: framing, handshake, and the event round-trip."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WireError
from repro.events import EventKind, FloorEvent
from repro.serve import (
    MAX_FRAME_BYTES,
    PROTOCOL,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    event_frame,
    event_from_frame,
    hello_frame,
    validate_hello,
    welcome_frame,
)


class TestFraming:
    def test_encode_is_one_canonical_line(self):
        data = encode_frame({"b": 1, "a": 2, "type": "x"})
        assert data == b'{"a":2,"b":1,"type":"x"}\n'

    def test_same_frame_same_bytes_regardless_of_key_order(self):
        one = encode_frame({"type": "tick", "round": 3})
        two = encode_frame({"round": 3, "type": "tick"})
        assert one == two

    def test_decode_round_trips(self):
        frame = {"type": "request", "target_member": "chair"}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encode_rejects_non_serializable(self):
        with pytest.raises(WireError, match="not JSON-serializable"):
            encode_frame({"type": "x", "bad": object()})

    def test_encode_rejects_nan(self):
        with pytest.raises(WireError, match="not JSON-serializable"):
            encode_frame({"type": "x", "value": float("nan")})

    def test_encode_rejects_oversize(self):
        with pytest.raises(WireError, match="exceeds"):
            encode_frame({"type": "x", "pad": "y" * MAX_FRAME_BYTES})

    def test_decode_rejects_bad_json(self):
        with pytest.raises(WireError, match="not valid JSON"):
            decode_frame(b"{nope}\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(WireError, match="JSON object"):
            decode_frame(b"[1,2]\n")

    def test_decode_rejects_missing_type(self):
        with pytest.raises(WireError, match="no string 'type'"):
            decode_frame(b'{"kind":"x"}\n')

    def test_decode_rejects_bad_utf8(self):
        with pytest.raises(WireError, match="UTF-8"):
            decode_frame(b'\xff\xfe{"type":"x"}\n')


class TestHandshake:
    def test_hello_welcome_shape(self):
        hello = hello_frame("alice", watch=True)
        assert validate_hello(hello) == "alice"
        welcome = welcome_frame(
            "alice", policy="equal_control", group="session",
            resumed=False, round_index=None,
        )
        assert welcome["proto"] == PROTOCOL
        assert welcome["v"] == PROTOCOL_VERSION

    def test_rejects_wrong_frame_type(self):
        with pytest.raises(WireError, match="must open with a hello"):
            validate_hello({"type": "request"})

    def test_rejects_foreign_protocol(self):
        hello = hello_frame("alice")
        hello["proto"] = "someone-else/serve"
        with pytest.raises(WireError, match="protocol mismatch"):
            validate_hello(hello)

    def test_rejects_version_skew(self):
        hello = hello_frame("alice")
        hello["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(WireError, match="version mismatch"):
            validate_hello(hello)

    def test_rejects_missing_member(self):
        hello = hello_frame("alice")
        hello["member"] = ""
        with pytest.raises(WireError, match="member name"):
            validate_hello(hello)


# JSON-safe values a transcript event's data mapping can carry.
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False, width=64)
    | st.text(max_size=40)
)
_data = st.none() | st.dictionaries(
    st.text(min_size=1, max_size=16), _scalars, max_size=6
)
_events = st.builds(
    FloorEvent,
    time=st.floats(
        min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
    ),
    kind=st.sampled_from(list(EventKind)),
    member=st.text(min_size=1, max_size=24),
    group=st.text(min_size=1, max_size=24),
    detail=st.text(max_size=60),
    data=_data,
)


class TestEventRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(event=_events)
    def test_every_kind_survives_the_wire(self, event):
        """to_dict -> canonical JSON line -> from_dict is lossless."""
        line = encode_frame(event_frame(event))
        restored = event_from_frame(decode_frame(line))
        assert restored == event
        # And a second trip yields the same bytes (canonical form).
        assert encode_frame(event_frame(restored)) == line

    @settings(max_examples=50, deadline=None)
    @given(event=_events)
    def test_wire_record_matches_transcript_record(self, event):
        """The wire carries the exact transcript ``to_dict`` mapping."""
        frame = json.loads(encode_frame(event_frame(event)))
        assert frame["event"] == json.loads(
            json.dumps(event.to_dict(), allow_nan=False)
        )

    def test_all_fifteen_kinds_enumerated(self):
        # The property above samples; this pins explicit full coverage.
        for kind in EventKind:
            event = FloorEvent(1.5, kind, "m", "g", "d", data={"k": 1})
            assert event_from_frame(
                decode_frame(encode_frame(event_frame(event)))
            ) == event

    def test_event_from_frame_rejects_wrong_type(self):
        with pytest.raises(WireError, match="not an event frame"):
            event_from_frame({"type": "tick"})

    def test_event_from_frame_rejects_bad_record(self):
        with pytest.raises(WireError, match="bad event record"):
            event_from_frame({"type": "event", "event": {"kind": "nope"}})

    @pytest.mark.parametrize("time", ["NaN", "Infinity", "1e999", '"nan"'])
    def test_event_from_frame_rejects_non_finite_time(self, time):
        # decode_frame accepts the NaN/Infinity tokens; the record does not.
        frame = decode_frame(
            b'{"event":{"group":"g","kind":"join","member":"a","time":'
            + time.encode() + b'},"type":"event"}\n'
        )
        with pytest.raises(WireError, match="event time must be finite"):
            event_from_frame(frame)
