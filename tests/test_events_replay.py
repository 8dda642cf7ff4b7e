"""Tests for deterministic transcript replay and the ``repro replay``
CLI verb."""

import json
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Scenario, Session, at
from repro.cli import main
from repro.core.modes import FCMMode
from repro.errors import TranscriptError
from repro.events import (
    EventBus,
    EventKind,
    FloorEvent,
    TokenPassPayload,
    TranscriptState,
    build_meta,
    check_transcript,
    load_transcript,
    replay_transcript,
    save_transcript,
    transcript_check_names,
    transcript_metrics,
)
from repro.events.replay import _TRANSCRIPT_CHECKS


def session_transcript(tmp_path, name="t.jsonl", checks=True):
    """Run a small scripted equal-control session and save it."""
    builder = (
        Session.builder(chair="teacher")
        .seed(7)
        .participants("teacher", "alice", "bob")
    )
    if checks:
        builder = builder.checks("queue_consistent", "holder_is_member")
    session = builder.build()
    with session:
        script = Scenario(name="replayed").add(
            at(1.2, "set_mode", mode=FCMMode.EQUAL_CONTROL),
            at(1.5, "request_floor", "alice"),
            at(2.0, "request_floor", "bob"),
            at(3.0, "release_floor", "alice"),
            at(4.0, "release_floor", "bob"),
        )
        script.run(session, until=6.0)
        return session.save_transcript(tmp_path / name)


class TestTranscriptChecks:
    def test_clean_stream(self):
        bus = EventBus()
        bus.append(1.0, EventKind.JOIN, "a", "g")
        bus.append(2.0, EventKind.GRANT, "a", "g")
        assert check_transcript(list(bus)) == []

    def test_holder_is_member_violation(self):
        bus = EventBus()
        bus.append(1.0, EventKind.JOIN, "a", "g")
        bus.append(2.0, EventKind.GRANT, "ghost", "g")
        violations = check_transcript(list(bus))
        assert [v.invariant for v in violations] == ["holder_is_member"]
        assert "ghost" in violations[0].detail

    def test_holder_also_queued_violation(self):
        bus = EventBus()
        bus.append(1.0, EventKind.JOIN, "a", "g")
        bus.append(2.0, EventKind.GRANT, "a", "g")
        bus.append(3.0, EventKind.QUEUE, "a", "g")  # holder queued: broken
        violations = check_transcript(list(bus))
        assert [v.invariant for v in violations] == ["queue_consistent"]
        assert "also queued" in violations[0].detail

    def test_idempotent_requeue_is_not_a_duplicate(self):
        # FloorToken.request is idempotent: a queued member re-requesting
        # logs a second QUEUE event but holds ONE queue slot.  The fold
        # must mirror that, or every retry becomes a false violation.
        bus = EventBus()
        bus.append(1.0, EventKind.JOIN, "a", "g")
        bus.append(1.0, EventKind.JOIN, "b", "g")
        bus.append(2.0, EventKind.GRANT, "a", "g")
        bus.append(3.0, EventKind.QUEUE, "b", "g")
        bus.append(4.0, EventKind.QUEUE, "b", "g")  # impatient re-request
        assert check_transcript(list(bus)) == []

    def test_live_requeue_produces_clean_transcript(self, tmp_path):
        # End-to-end reproduction of the false-positive scenario: bob
        # re-requests while already queued behind alice.
        session = (
            Session.builder(chair="teacher")
            .seed(3)
            .participants("teacher", "alice", "bob")
            .build()
        )
        with session:
            script = Scenario(name="requeue").add(
                at(1.2, "set_mode", mode=FCMMode.EQUAL_CONTROL),
                at(1.5, "request_floor", "alice"),
                at(2.0, "request_floor", "bob"),
                at(2.5, "request_floor", "bob"),  # still queued: idempotent
            )
            script.run(session, until=4.0)
            path = session.save_transcript(tmp_path / "requeue.jsonl")
        assert load_transcript(path).meta["checks"]["violations"] == []
        assert replay_transcript(path).ok

    def test_episode_dedup_and_recovery(self):
        bus = EventBus()
        bus.append(1.0, EventKind.JOIN, "a", "g")
        bus.append(2.0, EventKind.GRANT, "ghost", "g")   # breaks
        bus.append(3.0, EventKind.QUEUE, "a", "g")       # still broken: no dup
        bus.append(4.0, EventKind.GRANT, "a", "g")       # heals
        bus.append(5.0, EventKind.GRANT, "ghost", "g")   # breaks again
        violations = check_transcript(list(bus))
        assert [v.invariant for v in violations] == [
            "holder_is_member", "holder_is_member"
        ]
        assert [v.time for v in violations] == [2.0, 5.0]

    def test_token_pass_moves_holder(self):
        bus = EventBus()
        bus.append(1.0, EventKind.JOIN, "a", "g")
        bus.append(2.0, EventKind.GRANT, "a", "g")
        bus.append(3.0, EventKind.TOKEN_PASS, "a", "g", data={"to": "ghost"})
        violations = check_transcript(list(bus))
        assert [v.invariant for v in violations] == ["holder_is_member"]

    def test_leave_withdraws_from_queues(self):
        bus = EventBus()
        for member in ("a", "b"):
            bus.append(1.0, EventKind.JOIN, member, "g")
        bus.append(2.0, EventKind.GRANT, "a", "g")
        bus.append(3.0, EventKind.QUEUE, "b", "g")
        bus.append(4.0, EventKind.LEAVE, "b", "g")
        bus.append(5.0, EventKind.QUEUE, "b", "g")  # re-queue is not a dup
        assert check_transcript(list(bus)) == []

    def test_unknown_check_rejected(self):
        with pytest.raises(TranscriptError, match="single_speaker"):
            check_transcript([], names=["single_speaker"])

    def test_check_names_sorted(self):
        assert transcript_check_names() == sorted(transcript_check_names())

    def test_duplicates_passed_in_are_still_reported(self):
        state = TranscriptState(queues={"g": ["a", "a"]})
        check = _TRANSCRIPT_CHECKS["queue_consistent"]
        assert check(state) == "channel 'g' queue has duplicates: ['a', 'a']"
        state.apply(FloorEvent(1.0, EventKind.GRANT, "a", "g"))
        assert state.queues == {"g": []}
        assert check(state) is None


_FOLDED = (
    EventKind.JOIN, EventKind.LEAVE, EventKind.GRANT, EventKind.QUEUE,
    EventKind.TOKEN_PASS, EventKind.MODE_CHANGE,
)


@dataclass
class ReferenceState:
    """``TranscriptState`` before the per-group member sets, whose
    queue checks scan each queue: kept as the oracle."""

    members: set = field(default_factory=set)
    holders: dict = field(default_factory=dict)
    queues: dict = field(default_factory=dict)
    modes: dict = field(default_factory=dict)

    def apply(self, event):
        kind = event.kind
        if kind not in _FOLDED:
            return False
        if kind is EventKind.JOIN:
            self.members.add(event.member)
        elif kind is EventKind.LEAVE:
            self.members.discard(event.member)
            for queue in self.queues.values():
                while event.member in queue:
                    queue.remove(event.member)
        elif kind is EventKind.GRANT:
            self.holders[event.group] = event.member
            self._unqueue(event.group, event.member)
        elif kind is EventKind.QUEUE:
            queue = self.queues.setdefault(event.group, [])
            if event.member not in queue:
                queue.append(event.member)
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

    def _unqueue(self, group, member):
        queue = self.queues.get(group)
        while queue and member in queue:
            queue.remove(member)


def reference_holder_is_member(state):
    for group, holder in sorted(state.holders.items()):
        if holder is not None and holder not in state.members:
            return (
                f"channel {group!r}: holder {holder!r} is not a joined member"
            )
    return None


def reference_queue_consistent(state):
    for group, queue in sorted(state.queues.items()):
        if len(queue) != len(set(queue)):
            return f"channel {group!r} queue has duplicates: {queue}"
        holder = state.holders.get(group)
        if holder is not None and holder in queue:
            return f"channel {group!r}: holder {holder!r} is also queued"
    return None


REFERENCE_CHECKS = {
    "holder_is_member": reference_holder_is_member,
    "queue_consistent": reference_queue_consistent,
}


def reference_check_transcript(events):
    """``check_transcript``'s episode loop over the reference state."""
    state = ReferenceState()
    active = {}
    violations = []
    for event in events:
        if not state.apply(event):
            continue
        for name in sorted(REFERENCE_CHECKS):
            detail = REFERENCE_CHECKS[name](state)
            if detail is None:
                active.pop(name, None)
            elif active.get(name) != detail:
                active[name] = detail
                violations.append([event.time, name, detail])
    return violations


_members = st.sampled_from(["a", "b", "c", "d", "e"])
_groups = st.sampled_from(["g", "h", "session"])


@st.composite
def _stream_events(draw):
    kind = draw(st.sampled_from(list(_FOLDED) + [EventKind.REQUEST]))
    member, group = draw(_members), draw(_groups)
    detail, data = "", None
    if kind is EventKind.TOKEN_PASS:
        target = draw(st.sampled_from(["member", "ghost", "none", "detail", "bare"]))
        if target == "member":
            data = {"to": draw(_members)}
        elif target == "ghost":
            data = {"to": "ghost"}
        elif target == "none":
            data = {"to": None}
        elif target == "detail":
            detail = draw(_members)
    elif kind is EventKind.MODE_CHANGE:
        data = draw(st.sampled_from([None, {"to": "free_access"}, {"from": "x"}]))
    elif kind is EventKind.GRANT:
        member = draw(st.sampled_from(["a", "b", "c", "d", "e", "ghost"]))
    return kind, member, group, detail, data


def _stream(specs):
    return [
        FloorEvent(float(step), kind, member, group, detail, data)
        for step, (kind, member, group, detail, data) in enumerate(specs)
    ]


class TestChecksMatchReference:
    """The per-group member sets change the cost of the queue checks,
    never a verdict: re-queues, leaves mid-queue, and token passes to
    a member, a ghost or nobody fold exactly as with a queue scan."""

    @settings(max_examples=300, deadline=None)
    @given(specs=st.lists(_stream_events(), max_size=80))
    def test_violation_lists_are_identical(self, specs):
        events = _stream(specs)
        assert [
            v.as_record() for v in check_transcript(events)
        ] == reference_check_transcript(events)

    @settings(max_examples=200, deadline=None)
    @given(
        queues=st.dictionaries(_groups, st.lists(_members, max_size=4), max_size=2),
        specs=st.lists(_stream_events(), max_size=40),
    )
    def test_state_and_checks_follow_passed_in_queues(self, queues, specs):
        state = TranscriptState(queues={g: list(q) for g, q in queues.items()})
        reference = ReferenceState(queues={g: list(q) for g, q in queues.items()})
        for event in [None, *_stream(specs)]:
            if event is not None:
                assert state.apply(event) == reference.apply(event)
            assert state.queues == reference.queues
            assert state.holders == reference.holders
            for name, check in _TRANSCRIPT_CHECKS.items():
                assert check(state) == REFERENCE_CHECKS[name](reference)


class TestReplay:
    def test_session_transcript_replays_byte_identically(self, tmp_path):
        path = session_transcript(tmp_path)
        report = replay_transcript(path)
        assert report.ok
        assert report.metrics_match and report.checks_match
        assert report.events == len(load_transcript(path).events)
        assert report.monitor["invariants"] == [
            "queue_consistent", "holder_is_member"
        ]
        assert "byte-identical: True" in report.render()

    def test_replay_detects_tampering(self, tmp_path):
        path = session_transcript(tmp_path)
        lines = path.read_text().splitlines()
        # Drop the last event: recorded metrics no longer match.
        path.write_text("\n".join(lines[:-1]) + "\n")
        report = replay_transcript(path)
        assert not report.metrics_match
        assert not report.ok

    def test_replay_without_recorded_meta_is_vacuous_but_flagged(
        self, tmp_path
    ):
        bus = EventBus()
        bus.append(1.0, EventKind.JOIN, "a", "g")
        path = save_transcript(tmp_path / "bare.jsonl", list(bus))
        report = replay_transcript(path)
        assert report.ok
        assert set(report.missing) == {"metrics", "checks"}
        assert "recorded no" in report.render()

    def test_metrics_are_pure_functions_of_events(self, tmp_path):
        path = session_transcript(tmp_path)
        events = list(load_transcript(path).events)
        assert transcript_metrics(events) == transcript_metrics(list(events))

    def test_build_meta_embeds_recomputable_blocks(self, tmp_path):
        path = session_transcript(tmp_path)
        document = load_transcript(path)
        meta = build_meta(list(document.events))
        assert meta["metrics"] == document.meta["metrics"]
        assert meta["checks"] == document.meta["checks"]

    def test_monitorless_session_still_replays(self, tmp_path):
        path = session_transcript(tmp_path, checks=False)
        report = replay_transcript(path)
        assert report.ok
        assert report.monitor == {}


class TestReplayCli:
    def test_replay_ok_exits_zero(self, tmp_path, capsys):
        path = session_transcript(tmp_path)
        assert main(["replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metrics byte-identical: True" in out

    def test_replay_divergence_exits_one(self, tmp_path, capsys):
        path = session_transcript(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["replay", str(path)]) == 1
        assert "diverged" in capsys.readouterr().err

    def test_replay_bad_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["replay", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_replay_multiple_transcripts(self, tmp_path, capsys):
        first = session_transcript(tmp_path, name="a.jsonl")
        second = session_transcript(tmp_path, name="b.jsonl")
        assert main(["replay", str(first), str(second)]) == 0

    def test_bad_file_does_not_mask_the_next_transcript(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        good = session_transcript(tmp_path, name="good.jsonl")
        assert main(["replay", str(bad), str(good)]) == 2
        captured = capsys.readouterr()
        assert "good.jsonl" in captured.out  # still replayed and reported
        assert "error" in captured.err


class TestSweepTranscriptCapture:
    def test_sweep_cells_save_replayable_transcripts(self, tmp_path):
        from repro.experiments import Axis, SweepSpec, run_sweep

        spec = SweepSpec(
            name="capture",
            axes=(Axis("policy", ("free_access", "equal_control")),),
            base={
                "participants": 3,
                "duration": 6.0,
                "transcript_dir": str(tmp_path / "transcripts"),
            },
            root_seed=11,
        )
        run_sweep(spec)
        saved = sorted((tmp_path / "transcripts").glob("TRANSCRIPT_*.jsonl"))
        assert len(saved) == 2
        for path in saved:
            assert replay_transcript(path).ok

    def test_check_runner_cells_skip_transcripts(self, tmp_path):
        # ``repro sweep --spec floor_safety --transcripts DIR`` must run:
        # check cells keep no event bus, so capture is skipped — never
        # rejected as an unknown parameter.
        from repro.experiments import Axis, SweepSpec, run_sweep

        spec = SweepSpec(
            name="check-capture",
            axes=(Axis("mode", ("equal_control",)),),
            base={
                "members": 3,
                "budget": 2000,
                "transcript_dir": str(tmp_path / "transcripts"),
            },
            runner="check",
            root_seed=1,
        )
        result = run_sweep(spec)
        assert result.results[0].metrics["mutex_proved"] == 1.0
        assert not (tmp_path / "transcripts").exists()

    def test_baseline_cells_skip_transcripts(self, tmp_path):
        from repro.experiments import Axis, SweepSpec, run_sweep

        spec = SweepSpec(
            name="capture",
            axes=(Axis("policy", ("fifo",)),),
            base={
                "participants": 3,
                "duration": 6.0,
                "transcript_dir": str(tmp_path / "transcripts"),
            },
            root_seed=11,
        )
        run_sweep(spec)
        assert not (tmp_path / "transcripts").exists()

    def test_capture_does_not_change_metrics(self, tmp_path):
        from repro.experiments import Axis, SweepSpec, run_sweep

        axes = (Axis("policy", ("equal_control",)),)
        base = {"participants": 3, "duration": 6.0}
        plain = run_sweep(SweepSpec(name="c", axes=axes, base=base,
                                    root_seed=5))
        captured = run_sweep(SweepSpec(
            name="c", axes=axes,
            base={**base, "transcript_dir": str(tmp_path)},
            root_seed=5,
        ))
        assert plain.results[0].metrics == captured.results[0].metrics


def test_listener_errors_surface_in_report_and_meta(tmp_path):
    """Isolated dispatch failures must be visible, not silently eaten."""
    session = (
        Session.builder(chair="teacher")
        .seed(1)
        .participants("teacher", "alice")
        .build()
    )
    with session:
        def explode(event):
            raise RuntimeError("buggy subscriber")

        session.bus.subscribe(explode, kinds={EventKind.REQUEST})
        session.request_floor("alice")
        session.run_for(0.5)
        report = session.report()
        assert report.listener_errors >= 1
        assert "listener errors" in report.render()
        path = session.save_transcript(tmp_path / "errs.jsonl")
    meta = load_transcript(path).meta
    assert meta["session"]["listener_errors"] >= 1


def test_meta_is_json_clean(tmp_path):
    """Everything build_meta records must survive a JSON round trip."""
    path = session_transcript(tmp_path)
    meta = load_transcript(path).meta
    assert json.loads(json.dumps(meta)) == dict(meta)
