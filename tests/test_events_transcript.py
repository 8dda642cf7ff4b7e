"""Tests for JSONL transcript persistence."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TranscriptError
from repro.events import transcript
from repro.events import (
    SCHEMA,
    SCHEMA_VERSION,
    EventBus,
    EventKind,
    FloorEvent,
    dumps_transcript,
    load_transcript,
    save_transcript,
    transcript_filename,
)


def seeded_bus():
    bus = EventBus()
    bus.append(1.0, EventKind.JOIN, "alice", "session")
    bus.append(2.0, EventKind.REQUEST, "alice", "session", "equal_control",
               data={"mode": "equal_control"})
    bus.append(2.0, EventKind.GRANT, "alice", "session", "equal_control",
               data={"reason": None, "mode": "equal_control"})
    bus.append(5.0, EventKind.TOKEN_PASS, "alice", "session", "bob",
               data={"to": "bob"})
    return bus


class TestSaveLoad:
    def test_round_trip_restores_events_and_meta(self, tmp_path):
        bus = seeded_bus()
        path = bus.save(tmp_path / "t.jsonl", meta={"note": "hello"})
        document = load_transcript(path)
        assert document.meta == {"note": "hello"}
        assert list(document.events) == list(bus)
        assert len(document) == 4

    def test_round_trip_is_byte_identical(self, tmp_path):
        bus = seeded_bus()
        path = bus.save(tmp_path / "t.jsonl", meta={"k": [1, 2]})
        text = path.read_text(encoding="utf-8")
        document = load_transcript(path)
        assert dumps_transcript(document.events, document.meta) == text

    def test_header_is_schema_versioned(self, tmp_path):
        path = seeded_bus().save(tmp_path / "t.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == SCHEMA
        assert header["schema_version"] == SCHEMA_VERSION

    def test_bus_load_rebuilds_indexes_and_meta(self, tmp_path):
        path = seeded_bus().save(tmp_path / "t.jsonl", meta={"note": "x"})
        bus = EventBus.load(path)
        assert bus.meta == {"note": "x"}
        assert bus.count(EventKind.GRANT) == 1
        assert [e.member for e in bus.for_member("alice")] == ["alice"] * 4
        assert bus.of_kind(EventKind.TOKEN_PASS)[0].payload().to_member == "bob"

    def test_save_transcript_function(self, tmp_path):
        events = list(seeded_bus())
        path = save_transcript(tmp_path / "t.jsonl", events)
        assert list(load_transcript(path).events) == events

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_is_refused_not_written(self, tmp_path, time):
        bus = EventBus()
        bus.append(time, EventKind.JOIN, "alice", "session")
        target = tmp_path / "t.jsonl"
        with pytest.raises(TranscriptError, match="JSON"):
            save_transcript(target, bus)
        assert not target.exists()


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TranscriptError, match="cannot read"):
            load_transcript(tmp_path / "absent.jsonl")

    def test_non_utf8_file(self, tmp_path):
        target = tmp_path / "binary.jsonl"
        target.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(TranscriptError, match="cannot read"):
            load_transcript(target)

    def test_empty_file(self, tmp_path):
        target = tmp_path / "empty.jsonl"
        target.write_text("")
        with pytest.raises(TranscriptError, match="empty"):
            load_transcript(target)

    def test_wrong_schema(self, tmp_path):
        target = tmp_path / "bench.json"
        target.write_text('{"schema": "repro-dmps/bench"}\n')
        with pytest.raises(TranscriptError, match="not a"):
            load_transcript(target)

    def test_newer_schema_version_rejected(self, tmp_path):
        target = tmp_path / "future.jsonl"
        target.write_text(json.dumps(
            {"schema": SCHEMA, "schema_version": SCHEMA_VERSION + 1, "meta": {}}
        ) + "\n")
        with pytest.raises(TranscriptError, match="newer"):
            load_transcript(target)

    def test_bad_event_line_names_the_line(self, tmp_path):
        path = seeded_bus().save(tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        lines[2] = '{"time": 1.0, "kind": "nope", "member": "a", "group": "g"}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TranscriptError, match=":3"):
            load_transcript(path)

    def test_non_json_line(self, tmp_path):
        path = seeded_bus().save(tmp_path / "t.jsonl")
        path.write_text(path.read_text() + "not json\n")
        with pytest.raises(TranscriptError, match="not valid JSON"):
            load_transcript(path)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path = seeded_bus().save(tmp_path / "t.jsonl")
        path.write_text(path.read_text() + "\n\n")
        assert len(load_transcript(path)) == 4

    @pytest.mark.parametrize("version", [True, "1", 1.0, None, [1]])
    def test_non_integer_schema_version_rejected(self, tmp_path, version):
        target = tmp_path / "odd.jsonl"
        target.write_text(json.dumps(
            {"schema": SCHEMA, "schema_version": version, "meta": {}}
        ) + "\n")
        with pytest.raises(TranscriptError) as raised:
            load_transcript(target)
        assert str(raised.value) == (
            f"{target}: schema version {version!r} is not an integer"
        )

    def test_non_finite_tokens_are_refused_naming_the_line(self, tmp_path):
        target = tmp_path / "t.jsonl"
        target.write_text("\n".join([
            HEADER,
            event_line(time="0.0"),
            event_line(time="NaN"),
            event_line(time="Infinity"),
        ]) + "\n")
        with pytest.raises(TranscriptError) as raised:
            load_transcript(target)
        assert str(raised.value) == (
            f"{target}:3: not valid JSON (NaN is not a JSON value)"
        )

    def test_non_finite_token_in_the_header_is_refused(self, tmp_path):
        target = tmp_path / "t.jsonl"
        target.write_text(HEADER.replace('"meta":{}', '"meta":{"x":-Infinity}') + "\n")
        with pytest.raises(TranscriptError) as raised:
            load_transcript(target)
        assert str(raised.value) == (
            f"{target}:1: not valid JSON (-Infinity is not a JSON value)"
        )

    @pytest.mark.parametrize(
        ("time", "shown"), [('"nan"', "nan"), ("1e999", "inf"), ('"-inf"', "-inf")]
    )
    def test_non_finite_time_spelled_otherwise_is_refused(
        self, tmp_path, time, shown
    ):
        target = tmp_path / "t.jsonl"
        target.write_text(HEADER + "\n" + event_line(time=time) + "\n")
        with pytest.raises(TranscriptError) as raised:
            load_transcript(target)
        assert str(raised.value) == (
            f"{target}:2: bad event record "
            f"(event time must be finite, got {shown})"
        )

    def test_integer_past_the_digit_limit_is_a_transcript_error(self, tmp_path):
        # json raises a plain ValueError here, not a JSONDecodeError.
        target = tmp_path / "t.jsonl"
        target.write_text(HEADER + "\n" + event_line(time="9" * 5000) + "\n")
        with pytest.raises(TranscriptError, match=r":2: not valid JSON \(Exceeds"):
            load_transcript(target)


HEADER = '{"meta":{},"schema":"repro-dmps/transcript","schema_version":1}'


def event_line(time="1.0", detail='""'):
    return (
        f'{{"detail":{detail},"group":"g","kind":"join","member":"a",'
        f'"time":{time}}}'
    )


def reference_parse_line(source, number, line):
    """The loader's line decode before the strict decoder: per-line
    ``json.loads``, kept as the oracle."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as error:
        raise TranscriptError(
            f"{source}:{number}: not valid JSON ({error})"
        ) from None


def reference_load_transcript(path):
    """``load_transcript`` before the strict decoder, kept as the oracle
    the loader must match on everything but non-finite tokens."""
    source = Path(path)
    lines = source.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise TranscriptError(f"{source}: empty file, not a transcript")
    header = reference_parse_line(source, 1, lines[0])
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise TranscriptError(f"{source}: not a {SCHEMA!r} document")
    version = header.get("schema_version")
    if not isinstance(version, int) or version > SCHEMA_VERSION:
        raise TranscriptError(
            f"{source}: schema version {version!r} is newer than the "
            f"supported {SCHEMA_VERSION}"
        )
    meta = header.get("meta") or {}
    if not isinstance(meta, dict):
        raise TranscriptError(f"{source}: header meta must be an object")
    events = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = reference_parse_line(source, number, line)
        try:
            events.append(FloorEvent.from_dict(record))
        except TranscriptError:
            raise
        except Exception as error:
            raise TranscriptError(
                f"{source}:{number}: bad event record ({error})"
            ) from None
    return meta, tuple(events)


def load_outcome(load, path):
    try:
        document = load(path)
    except Exception as error:
        return type(error), str(error)
    if isinstance(document, tuple):
        return document
    return document.meta, document.events


#: Lines ``json.loads`` treats in telling ways: each must load, or fail
#: with the same message, as under per-line ``json.loads``.
LOADER_CORPUS = {
    "leading whitespace": ["  " + event_line()],
    "trailing whitespace": [event_line() + " \t"],
    "blank line": ["   ", event_line()],
    # As one array, "[" + ",".join(lines) + "]", these three decode to
    # three records; each fails on its own, so lines are decoded singly.
    "lines that only decode joined": ["1,2", '{"d":[{}', "{}]}"],
    "unterminated string": ['{"time": "1.0'],
    "raw tab in a string": [event_line(detail='"a\tb"')],
    "bad escape": [event_line(detail='"\\x41"')],
    "array": ["[1, 2]"],
    "null": ["null"],
    "duplicate keys": [event_line(time="1.0, \"time\": 2.0")],
    "byte-order mark": ["\ufeff" + event_line()],
    "extra data": [event_line() + " {}"],
}


class TestLoaderMatchesPerLineJsonLoads:
    @pytest.mark.parametrize("case", sorted(LOADER_CORPUS))
    @pytest.mark.parametrize("where", ["events", "header"])
    def test_corpus(self, tmp_path, case, where):
        body = LOADER_CORPUS[case]
        lines = [HEADER, *body] if where == "events" else [*body, event_line()]
        target = tmp_path / "t.jsonl"
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_outcome(load_transcript, target) == load_outcome(
            reference_load_transcript, target
        )

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("where", ["events", "header"])
    def test_non_finite_tokens_are_the_one_difference(
        self, tmp_path, token, where
    ):
        target = tmp_path / "t.jsonl"
        if where == "events":
            text, number = HEADER + "\n" + event_line(time=token), 2
        else:
            text, number = HEADER.replace("{}", f'{{"x":{token}}}'), 1
        target.write_text(text + "\n", encoding="utf-8")
        for line in text.splitlines():
            json.loads(line)  # which accepts the token
        assert load_outcome(load_transcript, target) == (
            TranscriptError,
            f"{target}:{number}: not valid JSON ({token} is not a JSON value)",
        )


def decode_parse_line(source, number, line):
    """The loader's line decode before the scanner fast path: the strict
    decoder's whole-line ``decode``, kept as the oracle."""
    try:
        return transcript._DECODER.decode(line)
    except ValueError as error:
        if line.startswith("\ufeff"):
            error = json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
            )
        raise TranscriptError(
            f"{source}:{number}: not valid JSON ({error})"
        ) from None


#: Line shapes the scanner fast path must hand to ``decode``, or accept
#: exactly as ``decode`` does (a shape with a newline is two lines).
_event_lines = st.builds(
    event_line,
    time=st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.integers().map(str)),
    detail=st.sampled_from(['""', '"floor held"', '"a\\u00e9"']),
)
_line_shapes = st.one_of(
    _event_lines,
    st.tuples(st.sampled_from([" ", "\t", "  \t"]), _event_lines,
              st.sampled_from(["", " ", "\t"])).map("".join),
    st.tuples(_event_lines, st.sampled_from([" ", "\t"])).map("".join),
    _event_lines.map(lambda line: "\ufeff" + line),
    st.sampled_from(["NaN", "Infinity", "-Infinity"]).map(
        lambda token: event_line(time=token)),
    st.just("1,2"),
    # An object split over two lines:
    st.integers(1, len(event_line()) - 1).map(
        lambda cut: event_line()[:cut] + "\n" + event_line()[cut:]),
    st.just('{"d":[{}\n{}]}'),
    st.sampled_from([" {}", "x", ",", "]", " 1", "{}"]).map(
        lambda tail: event_line() + tail),
    st.just(event_line(time="9" * 4301)),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["null", "[1, 2]", "1", '"text"', "{}"]),
)


class TestScannerFastPathMatchesDecode:
    """``load_transcript`` gives the same events, or the same error, as
    with the whole-line ``decode`` it had before the scanner call."""

    @settings(max_examples=400, deadline=None)
    @given(header=st.one_of(st.just(HEADER), _line_shapes,
                            st.just(" " + HEADER), st.just(HEADER + " ")),
           lines=st.lists(_line_shapes, max_size=6))
    def test_same_events_or_same_error(self, header, lines):
        with tempfile.TemporaryDirectory() as directory:
            target = Path(directory) / "t.jsonl"
            target.write_text("\n".join([header, *lines]) + "\n",
                              encoding="utf-8")
            actual = load_outcome(load_transcript, target)
            with mock.patch.object(transcript, "_parse_line", decode_parse_line):
                expected = load_outcome(load_transcript, target)
        assert actual == expected


class TestFilename:
    def test_canonical_name(self):
        assert transcript_filename("policy=fifo, members=4") == (
            "TRANSCRIPT_policy_fifo_members_4.jsonl"
        )
        assert transcript_filename("") == "TRANSCRIPT_session.jsonl"
