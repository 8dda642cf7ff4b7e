"""Deterministic replay: re-check and re-measure a saved transcript.

A transcript saved with metadata built by :func:`build_meta` records,
next to the events themselves, everything the live run concluded from
them: the transcript metrics (grant latencies, fairness, service
counts) and the verdicts of the *transcript checks* — invariants
re-derivable purely from the event stream.  :func:`replay_transcript`
loads such a file, recomputes both from the persisted events, and
compares canonical JSON bytes: a byte-identical match proves the saved
record really is a faithful, self-contained account of the run — no
re-simulation needed to audit a session, diff two transcripts, or
re-check a regression offline (the ``repro replay`` CLI verb).

Transcript checks mirror the live session monitors where the event
stream carries enough state:

* ``holder_is_member`` — a floor holder learned from ``GRANT`` /
  ``TOKEN_PASS`` events must be a joined member at that point;
* ``queue_consistent`` — the wait queue folded from ``QUEUE`` /
  ``GRANT`` / ``TOKEN_PASS`` / ``LEAVE`` events holds no duplicates
  and never the current holder.

Live-state invariants that need the server object (``single_speaker``
reads channel delivery sets) cannot be re-derived from events alone;
their live verdicts ride along in the metadata verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..errors import TranscriptError
from .transcript import canonical_json, load_transcript
from .types import EventKind, FloorEvent, TokenPassPayload

__all__ = [
    "ReplayReport",
    "TranscriptState",
    "TranscriptViolation",
    "build_meta",
    "check_transcript",
    "replay_transcript",
    "transcript_check_names",
    "transcript_metrics",
]

#: Event kinds that advance the folded floor state (and therefore
#: re-trigger the transcript checks).
_FOLD_KINDS = frozenset(
    {
        EventKind.JOIN,
        EventKind.LEAVE,
        EventKind.GRANT,
        EventKind.QUEUE,
        EventKind.TOKEN_PASS,
        EventKind.MODE_CHANGE,
    }
)


@dataclass(frozen=True)
class TranscriptViolation:
    """One invariant violation found while folding a transcript."""

    time: float
    invariant: str
    detail: str

    def as_record(self) -> list[Any]:
        """The canonical ``[time, invariant, detail]`` metadata row."""
        return [self.time, self.invariant, self.detail]


@dataclass
class TranscriptState:
    """Floor state folded from an event stream, one event at a time.

    Only state the events themselves carry is tracked: joined members,
    the per-group token holder (learned from grants and passes), the
    per-group wait queue, and the per-group mode.  :meth:`apply` is the
    single fold step; :func:`check_transcript` drives it and evaluates
    the stream invariants after every floor-moving event.  Initial
    ``queues`` may be passed in; after that, change them only through
    :meth:`apply`, which keeps a private member set beside each queue.
    """

    members: set[str] = field(default_factory=set)
    holders: dict[str, str | None] = field(default_factory=dict)
    queues: dict[str, list[str]] = field(default_factory=dict)
    modes: dict[str, str] = field(default_factory=dict)
    #: The members of each ``queues`` list, so the queue checks take
    #: O(1) per group rather than a scan of the queue.
    _queued: dict[str, set[str]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._queued = {
            group: set(queue) for group, queue in self.queues.items()
        }

    def apply(self, event: FloorEvent) -> bool:
        """Fold one event; returns whether floor state moved."""
        kind = event.kind
        if kind not in _FOLD_KINDS:
            return False
        if kind is EventKind.JOIN:
            self.members.add(event.member)
        elif kind is EventKind.LEAVE:
            self.members.discard(event.member)
            # The server withdraws a leaver from every wait queue.
            for group in self.queues:
                self._unqueue(group, event.member)
        elif kind is EventKind.GRANT:
            self.holders[event.group] = event.member
            self._unqueue(event.group, event.member)
        elif kind is EventKind.QUEUE:
            # Mirrors FloorToken.request's idempotency: a queued member
            # re-requesting logs another QUEUE event but occupies one
            # queue slot — folding it twice would fabricate duplicates.
            queued = self._queued.setdefault(event.group, set())
            if event.member not in queued:
                queued.add(event.member)
                self.queues.setdefault(event.group, []).append(event.member)
        elif kind is EventKind.TOKEN_PASS:
            payload = event.payload()
            successor = (
                payload.to_member
                if isinstance(payload, TokenPassPayload)
                else None
            )
            self.holders[event.group] = successor
            if successor is not None:
                self._unqueue(event.group, successor)
        elif kind is EventKind.MODE_CHANGE:
            mode = event.payload().to_mode
            if mode is not None:
                self.modes[event.group] = mode
        return True

    def _unqueue(self, group: str, member: str) -> None:
        queued = self._queued.get(group)
        if queued is not None and member in queued:
            queued.remove(member)
            queue = self.queues[group]
            while member in queue:
                queue.remove(member)


def _check_holder_is_member(state: TranscriptState) -> str | None:
    for group, holder in sorted(state.holders.items()):
        if holder is not None and holder not in state.members:
            return (
                f"channel {group!r}: holder {holder!r} is not a joined member"
            )
    return None


def _check_queue_consistent(state: TranscriptState) -> str | None:
    for group, queue in sorted(state.queues.items()):
        queued = state._queued[group]
        if len(queue) != len(queued):
            return f"channel {group!r} queue has duplicates: {queue}"
        holder = state.holders.get(group)
        if holder is not None and holder in queued:
            return f"channel {group!r}: holder {holder!r} is also queued"
    return None


_TRANSCRIPT_CHECKS = {
    "holder_is_member": _check_holder_is_member,
    "queue_consistent": _check_queue_consistent,
}


def transcript_check_names() -> list[str]:
    """The invariants re-derivable from an event stream, sorted."""
    return sorted(_TRANSCRIPT_CHECKS)


def check_transcript(
    events: Iterable[FloorEvent], names: Sequence[str] | None = None
) -> list[TranscriptViolation]:
    """Fold the events and evaluate the stream invariants at each step.

    Violations are recorded once per failure *episode* (matching the
    live monitor's dedup): an invariant failing identically across
    consecutive checks records once; a changed detail, or a re-failure
    after recovery, records again.

    Raises
    ------
    TranscriptError
        When ``names`` asks for a check that is not stream-derivable.
    """
    selected = list(names) if names is not None else transcript_check_names()
    unknown = sorted(set(selected) - set(_TRANSCRIPT_CHECKS))
    if unknown:
        raise TranscriptError(
            f"unknown transcript checks {unknown!r}; stream-derivable: "
            f"{transcript_check_names()}"
        )
    state = TranscriptState()
    active: dict[str, str] = {}
    violations: list[TranscriptViolation] = []
    for event in events:
        if not state.apply(event):
            continue
        for name in selected:
            detail = _TRANSCRIPT_CHECKS[name](state)
            if detail is None:
                active.pop(name, None)
            elif active.get(name) != detail:
                active[name] = detail
                violations.append(
                    TranscriptViolation(
                        time=event.time, invariant=name, detail=detail
                    )
                )
    return violations


def transcript_metrics(events: Sequence[FloorEvent]) -> dict[str, float]:
    """The deterministic metric block a transcript's metadata records.

    One pass of the shared streaming kernel
    (:class:`repro.metrics.fold.MetricsFold`, exact mode) — the same
    fold live sessions and sweep cells read, so record/replay
    byte-identity is enforced through one implementation.  The roster
    for the fairness index grows from the stream's ``JOIN`` events, so
    the metrics need nothing beyond the transcript itself.
    """
    # Lazy import: repro.events must stay importable on its own.
    from ..metrics.fold import MetricsFold

    fold = MetricsFold(mode="exact")
    for event in events:
        fold.add(event)
    return fold.to_metrics()


def build_meta(
    events: Sequence[FloorEvent],
    monitor=None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The metadata block a replayable transcript is saved with.

    Bundles the recomputable record — :func:`transcript_metrics` plus
    the :func:`check_transcript` verdicts — with the live monitor's
    summary when one is attached (its invariant names, check count,
    and recorded violations travel verbatim; replay preserves rather
    than recomputes them).  ``extra`` keys are merged in as-is.
    """
    meta: dict[str, Any] = {
        "metrics": transcript_metrics(events),
        "checks": {
            "names": transcript_check_names(),
            "violations": [
                violation.as_record()
                for violation in check_transcript(events)
            ],
        },
    }
    if monitor is not None:
        meta["monitor"] = {
            "invariants": list(monitor.names),
            "checks_run": monitor.checks_run,
            "violations": [
                [v.time, v.invariant, v.detail, v.trigger]
                for v in monitor.violations
            ],
        }
    if extra:
        meta.update(dict(extra))
    return meta


@dataclass(frozen=True)
class ReplayReport:
    """The outcome of replaying one saved transcript.

    ``metrics_match`` / ``checks_match`` compare canonical JSON bytes
    of the recorded and recomputed blocks; :attr:`ok` is their
    conjunction.  A transcript saved without a recorded block (hand
    -built, or from an external tool) replays with that comparison
    vacuously true but flagged in :attr:`missing`.
    """

    path: Path
    events: int
    duration: float
    recorded_metrics: Mapping[str, Any]
    replayed_metrics: Mapping[str, float]
    recorded_violations: tuple[tuple[Any, ...], ...]
    replayed_violations: tuple[TranscriptViolation, ...]
    monitor: Mapping[str, Any]
    missing: tuple[str, ...]
    #: The recorded ``meta.session`` block (chair, members, seed,
    #: listener_errors, ...) — empty for hand-built transcripts.
    session: Mapping[str, Any] = field(default_factory=dict)

    @property
    def listener_errors(self) -> int:
        """Listener exceptions the recorded run isolated during
        dispatch (0 for transcripts without a session block)."""
        return int(self.session.get("listener_errors", 0) or 0)

    @property
    def metrics_match(self) -> bool:
        """Recorded and recomputed metrics agree byte-for-byte."""
        if "metrics" in self.missing:
            return True
        return _canonical_bytes(self.recorded_metrics) == _canonical_bytes(
            self.replayed_metrics
        )

    @property
    def checks_match(self) -> bool:
        """Recorded and recomputed check verdicts agree byte-for-byte."""
        if "checks" in self.missing:
            return True
        replayed = [v.as_record() for v in self.replayed_violations]
        return _canonical_bytes(list(self.recorded_violations)) == (
            _canonical_bytes(replayed)
        )

    @property
    def ok(self) -> bool:
        """Whether the replay reproduced the recorded run."""
        return self.metrics_match and self.checks_match

    def render(self) -> str:
        """Human-readable multi-line replay summary."""
        lines = [
            f"replay {self.path.name}: {self.events} events over "
            f"{self.duration:.2f}s",
        ]
        for name in sorted(self.replayed_metrics):
            lines.append(f"  {name:<14} {self.replayed_metrics[name]:.4f}")
        if self.replayed_violations:
            lines.append(f"  check violations ({len(self.replayed_violations)}):")
            lines.extend(
                f"    t={v.time:.3f} {v.invariant}: {v.detail}"
                for v in self.replayed_violations
            )
        else:
            lines.append(
                f"  checks: {', '.join(transcript_check_names())} — clean"
            )
        if self.monitor:
            lines.append(
                f"  live monitor: {len(self.monitor.get('invariants', []))} "
                f"invariants, {len(self.monitor.get('violations', []))} "
                f"violations (recorded)"
            )
        if self.listener_errors:
            lines.append(
                f"  listener errors: {self.listener_errors} recorded "
                f"(dispatch isolated; see bus.listener_errors)"
            )
        for block in self.missing:
            lines.append(f"  note: transcript recorded no {block!r} block")
        lines.append(
            "  metrics byte-identical: "
            f"{self.metrics_match}; checks byte-identical: {self.checks_match}"
        )
        return "\n".join(lines)


def _canonical_bytes(value: Any) -> bytes:
    return canonical_json(value).encode()


def replay_transcript(path: str | Path) -> ReplayReport:
    """Load a transcript, recompute its metrics and check verdicts from
    the persisted events alone, and compare against the recorded run.

    Raises
    ------
    TranscriptError
        When the file is not a readable transcript document.
    """
    document = load_transcript(path)
    events = document.events
    recorded_metrics = document.meta.get("metrics")
    recorded_checks = document.meta.get("checks") or {}
    missing = []
    if recorded_metrics is None:
        recorded_metrics = {}
        missing.append("metrics")
    if "violations" not in recorded_checks:
        missing.append("checks")
    duration = events[-1].time if events else 0.0
    return ReplayReport(
        path=Path(path),
        events=len(events),
        duration=duration,
        recorded_metrics=recorded_metrics,
        replayed_metrics=transcript_metrics(events),
        recorded_violations=tuple(
            tuple(row) for row in recorded_checks.get("violations", [])
        ),
        replayed_violations=tuple(check_transcript(events)),
        monitor=document.meta.get("monitor") or {},
        missing=tuple(missing),
        session=document.meta.get("session") or {},
    )
