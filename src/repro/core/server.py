"""The DMPS server's floor-control manager.

"The floor control model is managed by group administration of the DMPS
server.  All the users floor control request inputs are sent to the
server, the server will take the messages with their rationality to
handle the floor control in group communicating period.  If the users
floor control requests are permitted, the request will combine with the
global clock control and with the same highest priority." (Section 4.)

:class:`FloorControlServer` composes the registry, resource model,
arbitrator, token machinery and event log into the single object the
session layer (and the benchmarks) drive.  It runs on a
:class:`~repro.clock.virtual.VirtualClock` so decisions carry global
timestamps; the actual network transport lives one layer up in
:mod:`repro.session`.
"""

from __future__ import annotations


from ..clock.virtual import VirtualClock
from ..errors import FloorControlError
from ..events import EventBus, EventKind
from ..trace import timing as _timing
from .arbitrator import Arbitrator
from .floor import FloorGrant, RequestOutcome, _RequestFactory
from .groups import GroupRegistry, Invitation, Member, Role
from .modes import FCMMode
from .resources import ResourceModel, ResourceVector

__all__ = ["FloorControlServer"]

_OUTCOME_EVENT = {
    RequestOutcome.GRANTED: EventKind.GRANT,
    RequestOutcome.QUEUED: EventKind.QUEUE,
    RequestOutcome.DENIED: EventKind.DENY,
    RequestOutcome.ABORTED: EventKind.ABORT,
}


class FloorControlServer:
    """Group administration plus floor control for one DMPS session.

    Parameters
    ----------
    clock:
        The server's global clock.
    resources:
        Station resource model (thresholds ``a``/``b``).
    session_group:
        Identifier of the main session group.
    chair:
        Name of the session chair (the teacher); registered
        automatically with :class:`~repro.core.groups.Role.CHAIR`.
    log_capacity:
        Ring-buffer capacity of the event log; ``None`` keeps the
        full transcript.  Fleet runs bound per-session memory by
        passing a finite capacity here.
    """

    def __init__(
        self,
        clock: VirtualClock,
        resources: ResourceModel,
        session_group: str = "session",
        chair: str = "teacher",
        log_capacity: int | None = None,
    ) -> None:
        self.clock = clock
        self.registry = GroupRegistry()
        self.resources = resources
        self.arbitrator = Arbitrator(self.registry, resources)
        self.log = EventBus(capacity=log_capacity)
        self.session_group = session_group
        self._requests = _RequestFactory()
        self._mode: dict[str, FCMMode] = {}
        self.registry.register_member(Member(name=chair, role=Role.CHAIR))
        self.registry.create_group(session_group, chair=chair)
        self._mode[session_group] = FCMMode.FREE_ACCESS
        self.chair = chair

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, member_name: str, host: str = "", role: Role = Role.PARTICIPANT) -> Member:
        """Register a member and add them to the main session group.

        A member who previously left is re-admitted with their existing
        registration (priority and role are preserved).
        """
        try:
            member = self.registry.member(member_name)
        except FloorControlError:
            member = Member(name=member_name, role=role, host=host)
            self.registry.register_member(member)
        self.registry.join(self.session_group, member_name)
        self.log.append(self.clock.now(), EventKind.JOIN, member_name, self.session_group)
        return member

    def leave(self, member_name: str) -> None:
        """Remove a member from the session (and any token queues).

        A leaving floor holder hands the token to the next queued
        member — never back to themselves — or the floor clears when
        nobody waits; each hand-off is logged as a ``TOKEN_PASS`` so
        the transcript explains why the holder changed.
        """
        now = self.clock.now()
        for group in self.registry.joined_groups(member_name):
            token = self.arbitrator.token(group.group_id)
            token.withdraw(member_name)
            if token.holder == member_name:
                new_holder = token.pass_to(member_name)
                self.log.append(
                    now, EventKind.TOKEN_PASS, member_name,
                    group.group_id, new_holder or "",
                    data={"to": new_holder},
                )
            if group.chair != member_name:
                self.registry.leave(group.group_id, member_name)
        self.log.append(now, EventKind.LEAVE, member_name, self.session_group)

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def mode_of(self, group_id: str) -> FCMMode:
        """The current floor mode of a group."""
        if group_id not in self._mode:
            raise FloorControlError(f"no mode set for group {group_id!r}")
        return self._mode[group_id]

    def set_mode(self, group_id: str, mode: FCMMode, by: str) -> None:
        """Change a group's floor mode; only its chair may do so."""
        group = self.registry.group(group_id)
        if by != group.chair:
            raise FloorControlError(
                f"only chair {group.chair!r} may change the mode of {group_id!r}"
            )
        previous = self._mode.get(group_id)
        self._mode[group_id] = mode
        self.log.append(
            self.clock.now(), EventKind.MODE_CHANGE, by, group_id, mode.value,
            data={
                "from": previous.value if previous is not None else None,
                "to": mode.value,
            },
        )

    # ------------------------------------------------------------------
    # Floor requests
    # ------------------------------------------------------------------
    def request_floor(
        self,
        member: str,
        group: str | None = None,
        mode: FCMMode | None = None,
        target_member: str | None = None,
        target_group: str | None = None,
        demand: ResourceVector | None = None,
        requested_at: float | None = None,
    ) -> FloorGrant:
        """Submit a floor request and arbitrate it immediately.

        ``requested_at`` defaults to the current global time; the
        session layer passes the send timestamp so grant latency
        includes network transit.
        """
        group = group if group is not None else self.session_group
        mode = mode if mode is not None else self.mode_of(group)
        now = self.clock.now()
        request = self._requests.make(
            member=member,
            group=group,
            mode=mode,
            host=self._host_of(member),
            target_member=target_member,
            target_group=target_group,
            requested_at=requested_at if requested_at is not None else now,
        )
        self.log.append(
            now, EventKind.REQUEST, member, group, mode.value,
            data={"mode": mode.value},
        )
        grant = self.arbitrator.arbitrate(request, demand=demand, now=now)
        outcome_data: dict[str, object] = {
            "reason": grant.reason or None,
            "mode": mode.value,
        }
        if grant.outcome is RequestOutcome.QUEUED:
            token = self.arbitrator.peek_token(group)
            waiting = token.waiting() if token is not None else []
            if member in waiting:
                outcome_data["position"] = waiting.index(member) + 1
        self.log.append(
            now,
            _OUTCOME_EVENT[grant.outcome],
            member,
            group,
            grant.reason or mode.value,
            data=outcome_data,
        )
        for victim in grant.suspended:
            self.log.append(now, EventKind.SUSPEND, victim, group)
        return grant

    def request_floor_batch(
        self, submissions: list[tuple[str, FCMMode | None, float | None]]
    ) -> list[FloorGrant]:
        """Arbitrate one tick's worth of session-group requests together.

        ``submissions`` is ``(member, mode, requested_at)`` triples in
        arrival order (``None`` falls back to the group mode / current
        time).  Decisions are identical to calling
        :meth:`request_floor` once per triple — the arbitrator applies
        the same state transitions in the same order — but the batch
        shape is what the fleet's per-tick scheduler drives.  The
        transcript differs in layout only: all ``REQUEST`` events are
        logged before the outcomes, and queued requests are not
        annotated with a queue position.
        """
        with _timing.maybe_span("server.request_batch"):
            return self._request_floor_batch(submissions)

    def _request_floor_batch(
        self, submissions: list[tuple[str, FCMMode | None, float | None]]
    ) -> list[FloorGrant]:
        now = self.clock.now()
        requests = []
        for member, mode, requested_at in submissions:
            mode = mode if mode is not None else self.mode_of(self.session_group)
            requests.append(
                self._requests.make(
                    member=member,
                    group=self.session_group,
                    mode=mode,
                    host=self._host_of(member),
                    requested_at=requested_at if requested_at is not None else now,
                )
            )
            self.log.append(
                now, EventKind.REQUEST, member, self.session_group, mode.value,
                data={"mode": mode.value},
            )
        with _timing.maybe_span("arbitrate.batch"):
            grants = self.arbitrator.arbitrate_batch(requests, now=now)
        for request, grant in zip(requests, grants):
            self.log.append(
                now,
                _OUTCOME_EVENT[grant.outcome],
                request.member,
                request.group,
                grant.reason or request.mode.value,
                data={"reason": grant.reason or None, "mode": request.mode.value},
            )
            for victim in grant.suspended:
                self.log.append(now, EventKind.SUSPEND, victim, request.group)
        return grants

    def release_floor(
        self, group_id: str, member: str, successor: str | None = None
    ) -> str | None:
        """Pass the equal-control token; logs and returns the new holder."""
        new_holder = self.arbitrator.release_floor(group_id, member, successor)
        self.log.append(
            self.clock.now(),
            EventKind.TOKEN_PASS,
            member,
            group_id,
            new_holder or "",
            data={"to": new_holder},
        )
        return new_holder

    def current_speakers(self, group_id: str) -> set[str]:
        """Members currently allowed to deliver in a group.

        * free access — every group member;
        * equal control — the token holder only;
        * group discussion / direct contact — the subgroup's members.
        """
        mode = self.mode_of(group_id)
        group = self.registry.group(group_id)
        if mode is FCMMode.FREE_ACCESS:
            return set(group.members)
        if mode is FCMMode.EQUAL_CONTROL:
            # peek: a query must not materialize a token (observers
            # like the session monitors rely on reads being free of
            # side effects).
            token = self.arbitrator.peek_token(group_id)
            holder = token.holder if token is not None else None
            return {holder} if holder else set()
        return set(group.members)

    # ------------------------------------------------------------------
    # Subgroups (group discussion / direct contact)
    # ------------------------------------------------------------------
    def open_discussion(self, creator: str) -> str:
        """Create a discussion subgroup chaired by ``creator``."""
        group = self.registry.create_subgroup(self.session_group, creator)
        self._mode[group.group_id] = FCMMode.GROUP_DISCUSSION
        return group.group_id

    def invite(self, group_id: str, inviter: str, invitee: str) -> Invitation:
        """Send a subgroup invitation (logged)."""
        invitation = self.registry.invite(group_id, inviter, invitee)
        self.log.append(
            self.clock.now(), EventKind.INVITE, inviter, group_id, invitee,
            data={"invitee": invitee},
        )
        return invitation

    def respond(self, invitation_id: int, accept: bool) -> Invitation:
        """Apply an invitee's accept/decline decision (logged)."""
        invitation = self.registry.respond(invitation_id, accept)
        self.log.append(
            self.clock.now(),
            EventKind.INVITE_RESPONSE,
            invitation.invitee,
            invitation.group_id,
            "accept" if accept else "decline",
            data={"accepted": accept},
        )
        return invitation

    def open_direct_contact(self, initiator: str, peer: str) -> str:
        """Create-and-invite for the two-member direct contact mode.

        Returns the private group id; the peer still must accept the
        pending invitation (fetch via ``pending_invitations_for``).
        """
        group = self.registry.create_subgroup(self.session_group, initiator)
        self._mode[group.group_id] = FCMMode.DIRECT_CONTACT
        self.registry.invite(group.group_id, initiator, peer)
        self.log.append(
            self.clock.now(), EventKind.INVITE, initiator, group.group_id, peer,
            data={"invitee": peer},
        )
        return group.group_id

    # ------------------------------------------------------------------
    # Resource events
    # ------------------------------------------------------------------
    def on_resource_recovery(self, group_id: str | None = None) -> list[str]:
        """Resume suspended media after external load drops (E4)."""
        group_id = group_id if group_id is not None else self.session_group
        resumed = self.arbitrator.recover_resources(group_id)
        for member in resumed:
            self.log.append(self.clock.now(), EventKind.RESUME, member, group_id)
        return resumed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _host_of(self, member: str) -> str:
        try:
            return self.registry.member(member).host
        except FloorControlError:
            return ""
