"""Transcript persistence: schema-versioned JSONL record files.

One saved transcript is a JSON-Lines document — a header line

.. code-block:: json

    {"meta": {...}, "schema": "repro-dmps/transcript", "schema_version": 1}

followed by one canonical JSON line per event
(:meth:`~repro.events.types.FloorEvent.to_dict` order-stable with
sorted keys and compact separators).  The bytes depend only on the
events and metadata, so saving a loaded transcript reproduces the file
exactly — the property ``repro replay`` and the regression tests pin.

JSONL (rather than one JSON array) keeps transcripts streamable and
appendable: a 100k-event session writes line by line, and a partial
file is still inspectable up to the break.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, NoReturn

from ..errors import TranscriptError
from .types import FloorEvent

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "TranscriptDocument",
    "canonical_json",
    "dumps_transcript",
    "load_transcript",
    "save_transcript",
    "transcript_filename",
]

#: Document family tag every transcript header carries.
SCHEMA = "repro-dmps/transcript"
#: Bump on any incompatible change to the line layout.
SCHEMA_VERSION = 1


def _refuse_constant(name: str) -> NoReturn:
    raise ValueError(f"{name} is not a JSON value")


#: The canonical encoder, built once: ``json.dumps`` builds a new one
#: on every call that passes options.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)
#: The line decoder.  ``json.loads`` accepts the non-standard tokens
#: ``NaN``, ``Infinity`` and ``-Infinity``; a transcript never holds
#: them, because :func:`canonical_json` refuses to write them.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)
#: The decoder's scanner: one call decodes a value starting at an index
#: and returns it with the index where the value ended.
_SCAN_ONCE = _DECODER.scan_once


@dataclass(frozen=True)
class TranscriptDocument:
    """A loaded transcript: its metadata block plus every event."""

    meta: Mapping[str, Any]
    events: tuple[FloorEvent, ...]

    def __len__(self) -> int:
        return len(self.events)


def canonical_json(value: Any) -> str:
    """The canonical JSON encoding every byte-identity guarantee rests
    on: sorted keys, compact separators.  Transcript lines, recorded
    metadata, and replay comparisons must all go through this one
    function — two encoders drifting apart would break the replay gate
    subtly.

    Raises
    ------
    TranscriptError
        On NaN or an infinity, which have no JSON spelling.
    """
    try:
        return _ENCODER.encode(value)
    except ValueError as exc:
        raise TranscriptError(f"not encodable as JSON: {exc}") from None


def dumps_transcript(
    events: Iterable[FloorEvent], meta: Mapping[str, Any] | None = None
) -> str:
    """Serialize events (plus optional metadata) to canonical JSONL."""
    header = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "meta": dict(meta) if meta else {},
    }
    lines = [canonical_json(header)]
    lines.extend(canonical_json(event.to_dict()) for event in events)
    return "\n".join(lines) + "\n"


def save_transcript(
    path: str | Path,
    events: Iterable[FloorEvent],
    meta: Mapping[str, Any] | None = None,
) -> Path:
    """Write the canonical JSONL transcript; returns the path written.

    Raises
    ------
    TranscriptError
        When an event or the metadata holds NaN or an infinity; nothing
        is written then.
    """
    target = Path(path)
    target.write_text(dumps_transcript(events, meta=meta), encoding="utf-8")
    return target


def load_transcript(path: str | Path) -> TranscriptDocument:
    """Read a saved transcript back, validating schema and every line.

    Raises
    ------
    TranscriptError
        When the file is missing, is not a transcript document, its
        schema version is not an integer or is newer than this code
        understands, or a line is not strict JSON (``NaN`` and
        ``Infinity`` are refused) or not a valid event record (the
        message names the line).
    """
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise TranscriptError(f"{source}: cannot read ({error})") from None
    lines = text.splitlines()
    if not lines:
        raise TranscriptError(f"{source}: empty file, not a transcript")
    header = _parse_line(source, 1, lines[0])
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise TranscriptError(f"{source}: not a {SCHEMA!r} document")
    version = header.get("schema_version")
    # ``type``, not ``isinstance``: ``True`` is an ``int`` too.
    if type(version) is not int:
        raise TranscriptError(
            f"{source}: schema version {version!r} is not an integer"
        )
    if version > SCHEMA_VERSION:
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
        record = _parse_line(source, number, line)
        try:
            events.append(FloorEvent.from_dict(record))
        except TranscriptError:
            raise
        except Exception as error:
            raise TranscriptError(
                f"{source}:{number}: bad event record ({error})"
            ) from None
    return TranscriptDocument(meta=meta, events=tuple(events))


def _parse_line(source: Path, number: int, line: str) -> Any:
    # Fast path: a canonical line is one value from its first character
    # to its last, which is exactly what ``decode`` accepts without
    # skipping whitespace.  Anything else (padding, a BOM, a refused
    # token, trailing data, no value at all) takes ``decode``, so what
    # is accepted and every error message stay ``decode``'s own.
    try:
        value, end = _SCAN_ONCE(line, 0)
    except (StopIteration, ValueError):
        pass
    else:
        if end == len(line):
            return value
    try:
        return _DECODER.decode(line)
    except ValueError as error:
        if line.startswith("\ufeff"):
            # ``json.loads`` names a byte-order mark before decoding;
            # ``decode`` would only report the value it expected.
            error = json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0
            )
        raise TranscriptError(
            f"{source}:{number}: not valid JSON ({error})"
        ) from None


def transcript_filename(name: str) -> str:
    """Canonical ``TRANSCRIPT_<name>.jsonl`` filename for a run name."""
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_") or "session"
    return f"TRANSCRIPT_{safe}.jsonl"
