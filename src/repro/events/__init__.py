"""repro.events — the typed, indexed, replayable event subsystem.

Every arbitration decision, token hand-off, membership change and mode
switch a session makes flows through one :class:`EventBus`:

* **Typed events** (:mod:`repro.events.types`) — :class:`FloorEvent`
  stays the wire record, but ``event.payload()`` returns a structured
  dataclass per :class:`EventKind` (grant reason, queue position,
  token recipient, mode-change from/to), ending detail-string parsing;
* **Indexed queries** (:mod:`repro.events.bus`) — per-kind, per-member
  and per-group indexes plus a time-sorted spine make ``of_kind`` /
  ``for_member`` / ``for_group`` O(k), ``count`` O(1) and ``between``
  O(log n + k), with an optional bounded ring mode for long-running
  sessions;
* **Filtered subscriptions** — ``subscribe(fn, kinds=..., groups=...,
  members=...)`` with exception-isolated dispatch and removal by
  identity;
* **Record/replay** (:mod:`repro.events.transcript`,
  :mod:`repro.events.replay`) — schema-versioned JSONL transcripts
  (``EventBus.save`` / ``EventBus.load``) whose recorded metrics and
  check verdicts the ``repro replay`` CLI verb reproduces
  byte-identically from the persisted events alone.
"""

from .bus import EventBus, ListenerError, Subscription
from .replay import (
    ReplayReport,
    TranscriptState,
    TranscriptViolation,
    build_meta,
    check_transcript,
    replay_transcript,
    transcript_check_names,
    transcript_metrics,
)
from .transcript import (
    SCHEMA,
    SCHEMA_VERSION,
    TranscriptDocument,
    canonical_json,
    dumps_transcript,
    load_transcript,
    save_transcript,
    transcript_filename,
)
from .types import (
    EventKind,
    EventPayload,
    FloorEvent,
    InvitePayload,
    InviteResponsePayload,
    ModeChangePayload,
    OutcomePayload,
    RequestPayload,
    TokenPassPayload,
)

__all__ = [
    "EventBus",
    "EventKind",
    "EventPayload",
    "FloorEvent",
    "InvitePayload",
    "InviteResponsePayload",
    "ListenerError",
    "ModeChangePayload",
    "OutcomePayload",
    "ReplayReport",
    "RequestPayload",
    "SCHEMA",
    "SCHEMA_VERSION",
    "Subscription",
    "TokenPassPayload",
    "TranscriptDocument",
    "TranscriptState",
    "TranscriptViolation",
    "build_meta",
    "canonical_json",
    "check_transcript",
    "dumps_transcript",
    "load_transcript",
    "replay_transcript",
    "save_transcript",
    "transcript_check_names",
    "transcript_filename",
    "transcript_metrics",
]
