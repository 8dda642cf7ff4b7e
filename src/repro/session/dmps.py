"""DMPS server and client endpoints over the simulated network.

This is the system of Figures 1–3: a server that owns the global clock,
the group administration, the floor control and the authoritative
whiteboard; and clients that join, sync their clocks, heartbeat, post to
the message window / whiteboard, and issue floor requests.

Everything runs on the shared :class:`~repro.clock.virtual.VirtualClock`
through :class:`~repro.net.simnet.Network`, so a whole classroom session
is a deterministic, seedable simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clock.discipline import discipline_from_sample
from ..clock.drift import DriftingClock
from ..clock.sync import CristianSyncClient, SyncSample
from ..clock.virtual import PeriodicHandle, VirtualClock, periodic
from ..core.modes import FCMMode
from ..core.resources import ResourceModel, ResourceVector
from ..core.server import FloorControlServer
from ..errors import FloorControlError, SessionError
from ..net.simnet import Network
from .messages import (
    FloorDecisionMsg,
    FloorRequestMsg,
    Heartbeat,
    Hello,
    InviteMsg,
    InviteResponseMsg,
    ModeChangeMsg,
    OpenSubgroupMsg,
    Post,
    ReleaseFloorMsg,
    SubgroupOpenedMsg,
    SyncRequestMsg,
    SyncResponseMsg,
    TokenNotifyMsg,
    Welcome,
    WhiteboardUpdate,
)
from .presence import PresenceMonitor
from .whiteboard import BoardEntry, Whiteboard, WhiteboardReplica

__all__ = ["DMPSServer", "DMPSClient"]


class DMPSServer:
    """The server endpoint: floor control + whiteboards + presence.

    Parameters
    ----------
    clock:
        Global clock (shared with the network).
    network:
        The simulator; the server registers host ``host_name`` on it.
    resources:
        Station resource model for arbitration; a generous default is
        created when omitted.
    """

    def __init__(
        self,
        clock: VirtualClock,
        network: Network,
        host_name: str = "server",
        chair: str = "teacher",
        resources: ResourceModel | None = None,
        presence_timeout: float = 1.0,
        log_capacity: int | None = None,
    ) -> None:
        self.clock = clock
        self.network = network
        self.host_name = host_name
        if resources is None:
            resources = ResourceModel(
                ResourceVector(network_kbps=100_000.0, cpu_share=16.0, memory_mb=8192.0)
            )
        self.control = FloorControlServer(
            clock, resources, chair=chair, log_capacity=log_capacity
        )
        self.presence = PresenceMonitor(clock, timeout=presence_timeout)
        self._boards: dict[str, Whiteboard] = {
            self.control.session_group: Whiteboard(self.control.session_group)
        }
        #: member -> client host name.
        self._host_of_member: dict[str, str] = {}
        #: invitation ids already forwarded to their invitee.
        self._forwarded_invitations: set[int] = set()
        #: message type -> handler(sender_host, message).
        self._handlers = {
            Hello: self._on_hello,
            FloorRequestMsg: self._on_floor_request,
            ReleaseFloorMsg: self._on_release,
            Post: self._on_post,
            SyncRequestMsg: self._on_sync,
            Heartbeat: self._on_heartbeat,
            InviteResponseMsg: self._on_invite_response,
            OpenSubgroupMsg: self._on_open_subgroup,
        }
        network.add_host(host_name, self._on_message)
        self.presence.start()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def session_group(self) -> str:
        return self.control.session_group

    def board(self, group: str | None = None) -> Whiteboard:
        """The whiteboard of a group (defaults to the session)."""
        group = group if group is not None else self.session_group
        if group not in self._boards:
            raise SessionError(f"no whiteboard for group {group!r}")
        return self._boards[group]

    def members(self) -> list[str]:
        """Members that completed the join handshake."""
        return list(self._host_of_member)

    def leave(self, member: str) -> None:
        """Remove a member: floor bookkeeping, presence, and routing.

        Any floor the member holds passes to the next queued member
        (see :meth:`~repro.core.server.FloorControlServer.leave`) and
        the remaining members are notified of the new holder;
        broadcasts stop being addressed to the departed host.
        """
        groups = [
            group.group_id
            for group in self.control.registry.joined_groups(member)
        ]
        self.control.leave(member)
        self.presence.unwatch(member)
        self._host_of_member.pop(member, None)
        for group in groups:
            self._notify_token(group)

    # ------------------------------------------------------------------
    # Group management helpers the chair uses out-of-band
    # ------------------------------------------------------------------
    def open_discussion(self, creator: str) -> str:
        """Create a discussion subgroup with its own board."""
        group_id = self.control.open_discussion(creator)
        self._boards[group_id] = Whiteboard(group_id)
        return group_id

    def open_direct_contact(self, initiator: str, peer: str) -> str:
        """Create a private two-person group and invite the peer."""
        group_id = self.control.open_direct_contact(initiator, peer)
        self._boards[group_id] = Whiteboard(group_id)
        self._forward_invitations(group_id)
        return group_id

    def invite(self, group: str, inviter: str, invitee: str):
        """Send a subgroup invitation and forward it to the invitee."""
        invitation = self.control.invite(group, inviter, invitee)
        self._forward_invitations(group)
        return invitation

    def set_mode(self, mode: FCMMode, by: str, group: str | None = None) -> None:
        """Change a group's floor mode and broadcast it."""
        group = group if group is not None else self.session_group
        self.control.set_mode(group, mode, by=by)
        self._broadcast_group(group, ModeChangeMsg(group=group, mode=mode))

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def _on_message(self, sender_host: str, message) -> None:
        # One dict lookup per message, whatever its type (heartbeats are
        # most of the traffic).  Unknown messages are dropped silently,
        # as a robust server must.
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(sender_host, message)

    def _on_hello(self, sender_host: str, message: Hello) -> None:
        if message.member not in self._host_of_member:
            if message.member != self.control.chair:
                self.control.join(message.member, host=sender_host)
            self._host_of_member[message.member] = sender_host
            self.presence.watch(message.member)
        self.network.send(
            self.host_name,
            sender_host,
            Welcome(
                member=message.member,
                session_group=self.session_group,
                mode=self.control.mode_of(self.session_group),
            ),
        )
        # Catch-up: a late joiner receives the existing board history so
        # its replica converges instead of buffering behind a gap.
        for group, board in self._boards.items():
            if message.member not in self.control.registry.group(group).members:
                continue
            for entry in board.entries():
                self.network.send(
                    self.host_name,
                    sender_host,
                    WhiteboardUpdate(
                        author=entry.author,
                        content=entry.content,
                        kind=entry.kind,
                        group=group,
                        sequence=entry.sequence,
                        accepted_at=entry.accepted_at,
                    ),
                )

    def _on_floor_request(self, sender_host: str, message: FloorRequestMsg) -> None:
        try:
            grant = self.control.request_floor(
                message.member,
                group=message.group,
                mode=message.mode,
                target_member=message.target_member,
                target_group=message.target_group,
                requested_at=message.sent_at,
            )
        except FloorControlError as error:
            # Malformed request (unknown group, unregistered member):
            # answer DENIED instead of taking the server down.
            self.network.send(
                self.host_name,
                sender_host,
                FloorDecisionMsg(
                    member=message.member,
                    outcome="denied",
                    group=message.group or self.session_group,
                    reason=str(error),
                    decided_at=self.clock.now(),
                ),
            )
            return
        self.network.send(
            self.host_name,
            sender_host,
            FloorDecisionMsg(
                member=message.member,
                outcome=grant.outcome.value,
                group=grant.request.group,
                reason=grant.reason,
                decided_at=grant.granted_at,
            ),
        )
        self._notify_token(grant.request.group)

    def _on_release(self, sender_host: str, message: ReleaseFloorMsg) -> None:
        group = message.group if message.group is not None else self.session_group
        try:
            self.control.release_floor(group, message.member, message.successor)
        except FloorControlError:
            # A stale or duplicate release (e.g. the member already lost
            # the floor) must not take the server down.
            return
        self._notify_token(group)

    def _on_post(self, sender_host: str, message: Post) -> None:
        group = message.group if message.group is not None else self.session_group
        board = self._boards.get(group)
        if board is None:
            return
        allowed = message.author in self.control.current_speakers(group)
        if not allowed:
            board.reject()
            return
        entry = board.accept(
            message.author, message.content, message.kind, self.clock.now()
        )
        update = WhiteboardUpdate(
            author=entry.author,
            content=entry.content,
            kind=entry.kind,
            group=group,
            sequence=entry.sequence,
            accepted_at=entry.accepted_at,
        )
        self._broadcast_group(group, update)

    def _on_sync(self, sender_host: str, message: SyncRequestMsg) -> None:
        self.network.send(
            self.host_name,
            sender_host,
            SyncResponseMsg(
                member=message.member,
                sent_local=message.sent_local,
                server_time=self.clock.now(),
            ),
        )

    def _on_heartbeat(self, sender_host: str, message: Heartbeat) -> None:
        try:
            self.presence.heartbeat(message.member)
        except SessionError:
            pass  # heartbeat raced ahead of the Hello; ignore

    def _on_invite_response(self, sender_host: str, message: InviteResponseMsg) -> None:
        try:
            self.control.respond(message.invitation_id, message.accept)
        except FloorControlError:
            return  # duplicate or stale response; first answer stands

    def _on_open_subgroup(self, sender_host: str, message: OpenSubgroupMsg) -> None:
        """A user creates a discussion subgroup / direct contact over
        the wire ("a user can create a new group to invite others")."""
        try:
            if message.kind == "direct":
                if message.peer is None:
                    return
                group_id = self.open_direct_contact(message.creator, message.peer)
            elif message.kind == "discussion":
                group_id = self.open_discussion(message.creator)
                for invitee in message.invitees:
                    self.invite(group_id, message.creator, invitee)
            else:
                return
        except FloorControlError:
            return  # e.g. creator not in the session: ignore
        self.network.send(
            self.host_name,
            sender_host,
            SubgroupOpenedMsg(
                creator=message.creator, group=group_id, kind=message.kind
            ),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _notify_token(self, group: str) -> None:
        try:
            mode = self.control.mode_of(group)
        except FloorControlError:
            return  # denied request against an unknown group
        if mode is not FCMMode.EQUAL_CONTROL:
            return
        holder = self.control.arbitrator.token(group).holder
        self._broadcast_group(group, TokenNotifyMsg(group=group, holder=holder))

    def _broadcast_group(self, group: str, payload) -> None:
        members = self.control.registry.group(group).members
        for member in members:
            host = self._host_of_member.get(member)
            if host is not None:
                self.network.send(self.host_name, host, payload)

    def _forward_invitations(self, group: str) -> None:
        for member in self.members():
            for invitation in self.control.registry.pending_invitations_for(member):
                if invitation.group_id != group:
                    continue
                if invitation.invitation_id in self._forwarded_invitations:
                    continue
                self._forwarded_invitations.add(invitation.invitation_id)
                host = self._host_of_member.get(member)
                if host is not None:
                    self.network.send(
                        self.host_name,
                        host,
                        InviteMsg(
                            invitation_id=invitation.invitation_id,
                            group=invitation.group_id,
                            inviter=invitation.inviter,
                            invitee=invitation.invitee,
                        ),
                    )


@dataclass
class _ClientState:
    """Mutable client-side view of the session."""

    joined: bool = False
    session_group: str | None = None
    mode: FCMMode | None = None
    token_holder: str | None = None
    last_decision: FloorDecisionMsg | None = None
    pending_invites: list[InviteMsg] = field(default_factory=list)
    #: Subgroups this client created, latest last.
    my_subgroups: list[str] = field(default_factory=list)


class DMPSClient:
    """A participant endpoint (student or teacher station).

    Parameters
    ----------
    member:
        The user's name.
    host_name:
        The network host this client runs on.
    clock_offset, drift_rate:
        Local clock imperfection (see
        :class:`~repro.clock.drift.DriftingClock`).
    auto_accept_invites:
        When ``True`` the client immediately accepts incoming
        invitations (convenient in workloads).
    """

    def __init__(
        self,
        member: str,
        host_name: str,
        network: Network,
        server_host: str = "server",
        clock_offset: float = 0.0,
        drift_rate: float = 0.0,
        auto_accept_invites: bool = True,
    ) -> None:
        self.member = member
        self.host_name = host_name
        self.network = network
        self.server_host = server_host
        self.clock: VirtualClock = network.clock
        self.local_clock = DriftingClock(
            self.clock, offset=clock_offset, drift_rate=drift_rate
        )
        self.sync = CristianSyncClient(self.local_clock)
        self.state = _ClientState()
        self.replicas: dict[str, WhiteboardReplica] = {}
        self.auto_accept_invites = auto_accept_invites
        self.decisions: list[FloorDecisionMsg] = []
        self._heartbeats: PeriodicHandle | None = None
        self._sync_loop: PeriodicHandle | None = None
        #: When True, each sync response also steps the local clock
        #: (Cristian discipline), keeping skew near the RTT error bound.
        self.discipline_clock = False
        network.add_host(host_name, self._on_message)

    # ------------------------------------------------------------------
    # Outbound actions
    # ------------------------------------------------------------------
    def join(self, is_chair: bool = False) -> None:
        """Send the Hello handshake to the server."""
        self._send(Hello(member=self.member, is_chair=is_chair))

    def request_floor(
        self,
        mode: FCMMode | None = None,
        group: str | None = None,
        target_member: str | None = None,
        target_group: str | None = None,
    ) -> None:
        """Send a floor request (decision arrives asynchronously)."""
        self._send(
            FloorRequestMsg(
                member=self.member,
                mode=mode,
                group=group,
                target_member=target_member,
                target_group=target_group,
                sent_at=self.clock.now(),
            )
        )

    def release_floor(self, group: str | None = None, successor: str | None = None) -> None:
        """Pass the equal-control token onward."""
        self._send(
            ReleaseFloorMsg(member=self.member, group=group, successor=successor)
        )

    def post(self, content: str, kind: str = "message", group: str | None = None) -> None:
        """Send a message/annotation to a group's board."""
        self._send(
            Post(
                author=self.member,
                content=content,
                kind=kind,
                group=group,
                sent_at=self.clock.now(),
            )
        )

    def open_discussion(self, invitees: list[str] | None = None) -> None:
        """Ask the server to create a discussion subgroup chaired by
        this member, inviting ``invitees``.  The created group id
        arrives asynchronously in ``state.my_subgroups``."""
        self._send(
            OpenSubgroupMsg(
                creator=self.member,
                kind="discussion",
                invitees=tuple(invitees or ()),
            )
        )

    def open_direct_contact(self, peer: str) -> None:
        """Ask the server for a private two-person window with ``peer``."""
        self._send(OpenSubgroupMsg(creator=self.member, kind="direct", peer=peer))

    def sync_clock(self) -> None:
        """Send one Cristian probe."""
        self._send(SyncRequestMsg(member=self.member, sent_local=self.local_clock.now()))

    def start_clock_sync(self, interval: float = 5.0, discipline: bool = True) -> None:
        """Probe the server clock every ``interval``; optionally step
        the local clock after each response (sync discipline)."""
        if self._sync_loop is not None:
            return
        self.discipline_clock = discipline
        self.sync_clock()
        self._sync_loop = periodic(self.clock, interval, self.sync_clock)

    def stop_clock_sync(self) -> None:
        """Cancel the periodic sync loop."""
        if self._sync_loop is not None:
            self._sync_loop.cancel()
            self._sync_loop = None

    def start_heartbeats(self, interval: float = 0.25) -> None:
        """Begin periodic liveness beacons (idempotent)."""
        if self._heartbeats is not None:
            return
        self._heartbeats = periodic(self.clock, interval, self._heartbeat)

    def stop_heartbeats(self) -> None:
        """Cancel the heartbeat loop."""
        if self._heartbeats is not None:
            self._heartbeats.cancel()
            self._heartbeats = None

    def disconnect(self) -> None:
        """Simulate losing the client (Figure 3's red-light scenario)."""
        self.stop_heartbeats()
        self.network.set_host_up(self.host_name, False)

    def reconnect(self, heartbeat_interval: float = 0.25) -> None:
        """Bring the host back up and resume heartbeats."""
        self.network.set_host_up(self.host_name, True)
        self.start_heartbeats(heartbeat_interval)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def board(self, group: str | None = None) -> list[BoardEntry]:
        """The in-order board entries this client currently sees."""
        group = group if group is not None else self.state.session_group or "session"
        replica = self.replicas.get(group)
        return replica.visible() if replica is not None else []

    def holds_floor(self) -> bool:
        """Whether this client currently holds the token."""
        return self.state.token_holder == self.member

    def estimated_global_time(self) -> float:
        """Global-time estimate after sync (falls back to local time)."""
        if self.sync.synchronized():
            return self.sync.global_now()
        return self.local_clock.now()

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------
    def _on_message(self, sender_host: str, message) -> None:
        if isinstance(message, Welcome):
            self.state.joined = True
            self.state.session_group = message.session_group
            self.state.mode = message.mode
            self.replicas.setdefault(
                message.session_group, WhiteboardReplica(message.session_group)
            )
        elif isinstance(message, FloorDecisionMsg):
            self.state.last_decision = message
            self.decisions.append(message)
        elif isinstance(message, TokenNotifyMsg):
            self.state.token_holder = message.holder
        elif isinstance(message, WhiteboardUpdate):
            replica = self.replicas.setdefault(
                message.group, WhiteboardReplica(message.group)
            )
            replica.apply(
                BoardEntry(
                    sequence=message.sequence,
                    author=message.author,
                    content=message.content,
                    kind=message.kind,
                    accepted_at=message.accepted_at,
                )
            )
        elif isinstance(message, SyncResponseMsg):
            sample = SyncSample(
                request_local=message.sent_local,
                server_time=message.server_time,
                response_local=self.local_clock.now(),
            )
            self.sync.record(sample)
            if self.discipline_clock:
                discipline_from_sample(self.local_clock, sample)
        elif isinstance(message, ModeChangeMsg):
            if message.group == self.state.session_group:
                self.state.mode = message.mode
        elif isinstance(message, InviteMsg):
            self.state.pending_invites.append(message)
            if self.auto_accept_invites:
                self._send(
                    InviteResponseMsg(
                        invitation_id=message.invitation_id,
                        invitee=self.member,
                        accept=True,
                    )
                )
        elif isinstance(message, SubgroupOpenedMsg):
            self.state.my_subgroups.append(message.group)
            self.replicas.setdefault(message.group, WhiteboardReplica(message.group))

    def _heartbeat(self) -> None:
        self._send(Heartbeat(member=self.member, sent_at=self.clock.now()))

    def _send(self, payload) -> None:
        self.network.send(self.host_name, self.server_host, payload)
