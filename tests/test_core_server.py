"""Tests for the FloorControlServer facade (group administration +
arbitration + event log)."""

import pytest

from repro.clock.virtual import VirtualClock
from repro.events import EventKind
from repro.core.modes import FCMMode
from repro.core.resources import ResourceModel, ResourceVector
from repro.core.server import FloorControlServer
from repro.core.floor import RequestOutcome
from repro.errors import FloorControlError


def make_server(clock=None):
    clock = clock if clock is not None else VirtualClock()
    resources = ResourceModel(
        ResourceVector(network_kbps=10_000.0, cpu_share=4.0, memory_mb=1024.0)
    )
    server = FloorControlServer(clock, resources)
    for name in ("alice", "bob", "carol"):
        server.join(name)
    return server, clock


class TestMembership:
    def test_join_registers_and_logs(self):
        server, __ = make_server()
        assert "alice" in server.registry.group("session")
        assert len(server.log.of_kind(EventKind.JOIN)) == 3

    def test_chair_created_at_init(self):
        server, __ = make_server()
        assert server.registry.group("session").chair == "teacher"

    def test_leave_removes_member_and_token_claims(self):
        server, __ = make_server()
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        server.request_floor("alice")
        server.request_floor("bob")
        server.leave("alice")
        # bob inherits the floor; alice gone from the group.
        assert server.arbitrator.token("session").holder == "bob"
        assert "alice" not in server.registry.group("session")


class TestLeaveFloorHandOff:
    """Regression: a leaving holder must never keep (or regain) the
    floor — the token passes to the next queued member, or clears."""

    def test_leaving_holder_passes_to_next_queued(self):
        server, __ = make_server()
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        for name in ("alice", "bob", "carol"):
            server.request_floor(name)
        server.leave("alice")
        token = server.arbitrator.token("session")
        assert token.holder == "bob"
        assert token.waiting() == ["carol"]

    def test_leaving_holder_with_empty_queue_clears_floor(self):
        server, __ = make_server()
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        server.request_floor("alice")
        server.leave("alice")
        assert server.arbitrator.token("session").holder is None

    def test_leaving_queued_member_only_dequeued(self):
        server, __ = make_server()
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        for name in ("alice", "bob", "carol"):
            server.request_floor(name)
        server.leave("bob")
        token = server.arbitrator.token("session")
        assert token.holder == "alice"
        assert token.waiting() == ["carol"]

    def test_leave_hand_off_is_logged(self):
        server, __ = make_server()
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        server.request_floor("alice")
        server.request_floor("bob")
        server.leave("alice")
        passes = server.log.of_kind(EventKind.TOKEN_PASS)
        assert len(passes) == 1
        assert passes[0].member == "alice"
        assert passes[0].detail == "bob"

    def test_leave_then_rejoin_preserves_registration(self):
        server, __ = make_server()
        server.leave("alice")
        assert "alice" not in server.registry.group("session")
        member = server.join("alice")
        assert member.priority == 1
        assert "alice" in server.registry.group("session")

    def test_floor_never_returns_to_leaver(self):
        server, __ = make_server()
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        server.request_floor("alice")
        server.request_floor("bob")
        server.leave("alice")
        # Draining the queue never hands the floor back to alice.
        holders = []
        token = server.arbitrator.token("session")
        while token.holder is not None:
            holders.append(token.holder)
            server.release_floor("session", token.holder)
        assert "alice" not in holders


class TestModes:
    def test_default_mode_is_free_access(self):
        server, __ = make_server()
        assert server.mode_of("session") is FCMMode.FREE_ACCESS

    def test_only_chair_changes_mode(self):
        server, __ = make_server()
        with pytest.raises(FloorControlError):
            server.set_mode("session", FCMMode.EQUAL_CONTROL, by="alice")
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        assert server.mode_of("session") is FCMMode.EQUAL_CONTROL

    def test_mode_change_logged(self):
        server, __ = make_server()
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        events = server.log.of_kind(EventKind.MODE_CHANGE)
        assert len(events) == 1
        assert events[0].detail == "equal_control"

    def test_mode_of_unknown_group_raises(self):
        server, __ = make_server()
        with pytest.raises(FloorControlError):
            server.mode_of("ghost")


class TestRequests:
    def test_request_uses_group_mode_by_default(self):
        server, __ = make_server()
        grant = server.request_floor("alice")
        assert grant.request.mode is FCMMode.FREE_ACCESS
        assert grant.outcome is RequestOutcome.GRANTED

    def test_request_carries_global_timestamp(self):
        server, clock = make_server()
        clock.call_at(5.0, lambda: None)
        clock.run_until(5.0)
        grant = server.request_floor("alice")
        assert grant.granted_at == 5.0

    def test_grant_latency_from_send_timestamp(self):
        server, clock = make_server()
        clock.run_until(2.0)
        grant = server.request_floor("alice", requested_at=1.5)
        assert grant.latency == pytest.approx(0.5)

    def test_request_and_outcome_logged(self):
        server, __ = make_server()
        server.request_floor("alice")
        assert len(server.log.of_kind(EventKind.REQUEST)) == 1
        assert len(server.log.of_kind(EventKind.GRANT)) == 1

    def test_queued_outcome_logged(self):
        server, __ = make_server()
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        server.request_floor("alice")
        server.request_floor("bob")
        assert len(server.log.of_kind(EventKind.QUEUE)) == 1


class TestSpeakers:
    def test_free_access_everyone_speaks(self):
        server, __ = make_server()
        assert server.current_speakers("session") == {
            "teacher", "alice", "bob", "carol",
        }

    def test_equal_control_single_speaker(self):
        server, __ = make_server()
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        assert server.current_speakers("session") == set()
        server.request_floor("alice")
        assert server.current_speakers("session") == {"alice"}

    def test_token_pass_moves_speaker(self):
        server, __ = make_server()
        server.set_mode("session", FCMMode.EQUAL_CONTROL, by="teacher")
        server.request_floor("alice")
        server.request_floor("bob")
        server.release_floor("session", "alice")
        assert server.current_speakers("session") == {"bob"}
        assert len(server.log.of_kind(EventKind.TOKEN_PASS)) == 1


class TestSubgroups:
    def test_open_discussion_flow(self):
        """Protocol: the request addresses the parent session group and
        names the discussion subgroup as target_group."""
        server, __ = make_server()
        group_id = server.open_discussion("alice")
        invitation = server.invite(group_id, "alice", "bob")
        server.respond(invitation.invitation_id, accept=True)
        grant = server.request_floor(
            "bob",
            group="session",
            mode=FCMMode.GROUP_DISCUSSION,
            target_group=group_id,
        )
        assert grant.outcome is RequestOutcome.GRANTED

    def test_uninvited_member_cannot_speak_in_discussion(self):
        server, __ = make_server()
        group_id = server.open_discussion("alice")
        grant = server.request_floor(
            "carol",
            group="session",
            mode=FCMMode.GROUP_DISCUSSION,
            target_group=group_id,
        )
        assert grant.outcome is RequestOutcome.DENIED

    def test_discussion_subgroup_mode(self):
        server, __ = make_server()
        group_id = server.open_discussion("alice")
        assert server.mode_of(group_id) is FCMMode.GROUP_DISCUSSION

    def test_direct_contact_flow(self):
        server, __ = make_server()
        group_id = server.open_direct_contact("alice", "bob")
        assert server.mode_of(group_id) is FCMMode.DIRECT_CONTACT
        pending = server.registry.pending_invitations_for("bob")
        assert len(pending) == 1
        server.respond(pending[0].invitation_id, accept=True)
        assert "bob" in server.registry.group(group_id)

    def test_declined_direct_contact_not_joined(self):
        server, __ = make_server()
        group_id = server.open_direct_contact("alice", "bob")
        pending = server.registry.pending_invitations_for("bob")
        server.respond(pending[0].invitation_id, accept=False)
        assert "bob" not in server.registry.group(group_id)


class TestResourceRecovery:
    def test_recovery_logs_resume_events(self):
        server, __ = make_server()
        from repro.core.suspension import ActiveMedia

        server.arbitrator.ledger.activate(
            "session",
            ActiveMedia(
                member="alice",
                media_name="v",
                demand=ResourceVector(network_kbps=2000.0),
                priority=1,
            ),
        )
        server.resources.set_external_load(ResourceVector(network_kbps=6200.0))
        server.request_floor(
            "teacher", demand=ResourceVector(network_kbps=1500.0)
        )
        assert server.arbitrator.ledger.suspended("session") != []
        server.resources.set_external_load(ResourceVector.zeros())
        resumed = server.on_resource_recovery()
        assert resumed == ["alice"]
        assert len(server.log.of_kind(EventKind.RESUME)) == 1
