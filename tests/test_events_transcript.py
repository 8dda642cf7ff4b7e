"""Tests for JSONL transcript persistence."""

import json

import pytest

from repro.errors import TranscriptError
from repro.events import (
    SCHEMA,
    SCHEMA_VERSION,
    EventBus,
    EventKind,
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


class TestFilename:
    def test_canonical_name(self):
        assert transcript_filename("policy=fifo, members=4") == (
            "TRANSCRIPT_policy_fifo_members_4.jsonl"
        )
        assert transcript_filename("") == "TRANSCRIPT_session.jsonl"
