"""The :class:`Session` facade — one object that owns a DMPS session.

A session composes (never replaces) the lower layers: the shared
:class:`~repro.clock.virtual.VirtualClock`, the
:class:`~repro.net.simnet.Network`, one
:class:`~repro.session.dmps.DMPSServer`, and one
:class:`~repro.session.dmps.DMPSClient` per participant, already
joined and heartbeating by the time :meth:`Session.build` returns.
All the common verbs live directly on the facade::

    with Session.build("alice", "bob", chair="teacher") as s:
        s.post("alice", "hi everyone")
        s.run_until(2.0)
        s.set_mode("equal_control")
        s.request_floor("alice")
        s.run_for(0.5)
        print(s.report().render())

The underlying objects stay reachable (``s.server``, ``s.clients``,
``s.clock``, ``s.network``, ``s.dynamics``) for anything the facade
does not cover.

Time-varying network behaviour (:mod:`repro.net.dynamics`) is part of
the facade: declare it up front with the builder's ``loss_burst`` /
``delay_ramp`` / ``partition_window`` knobs, or script it mid-session
with the ``degrade_link`` / ``partition`` / ``heal`` / ``churn`` verbs
(all reachable from :class:`~repro.api.scenario.Scenario` steps).

Runtime verification (:mod:`repro.check.monitor`) is part of it too:
``SessionConfig.checks`` (builder knob ``checks(...)``) attaches a
:class:`~repro.check.monitor.SessionMonitor` re-checking named
invariants on every floor event, the scripted ``assert_invariant``
verb checks one on the spot, and violations land in the report.
"""

from __future__ import annotations

import random
from pathlib import Path

from ..check.monitor import SessionMonitor, evaluate_invariant
from ..clock.virtual import VirtualClock
from ..core.modes import FCMMode
from ..errors import CheckError, SessionError
from ..events import EventBus
from ..metrics.fold import SESSION_FOLD_KINDS, MetricsFold
from ..net.dynamics import NetworkDynamics
from ..net.simnet import Network
from ..session.dmps import DMPSClient, DMPSServer
from ..session.presence import PresenceMonitor
from ..session.report import SessionReport, summarize
from ..session.whiteboard import Whiteboard
from .config import (
    DynamicsSpec,
    ParticipantSpec,
    PartitionSpec,
    SessionBuilder,
    SessionConfig,
)
from .policies import resolve_mode

__all__ = ["Session"]


class Session:
    """A fully wired DMPS session (star topology, joined, settled).

    Construct through :meth:`build` / :meth:`builder` rather than
    directly; the constructor expects a validated
    :class:`~repro.api.config.SessionConfig`.
    """

    def __init__(self, config: SessionConfig) -> None:
        config.validate()
        self.config = config
        self.clock = VirtualClock()
        self.network = Network(self.clock, rng=random.Random(config.seed + 1))
        self.server = DMPSServer(
            self.clock,
            self.network,
            host_name=config.server_host,
            chair=config.chair,
            resources=config.resources.to_model(),
            presence_timeout=config.presence_timeout,
            log_capacity=config.transcript_capacity,
        )
        if config.presence_sweep is not None:
            self.server.presence.sweep_interval = config.presence_sweep
        self.dynamics = NetworkDynamics(
            self.network, rng=random.Random(config.seed + 2)
        )
        self._clients: dict[str, DMPSClient] = {}
        self._departed: dict[str, DMPSClient] = {}
        self._closed = False
        #: The live metrics fold (:mod:`repro.metrics`): subscribed to
        #: the bus before any member joins, so it sees every floor
        #: event of the session's lifetime — ring-mode eviction can
        #: drop transcript events, never metrics.  The session report
        #: reads this state instead of re-counting the log.
        self.metrics = MetricsFold(mode=config.metrics_mode)
        self.bus.subscribe(self.metrics.add, kinds=SESSION_FOLD_KINDS)
        #: The runtime invariant monitor (``None`` unless the config
        #: names ``checks``).  Attached before any event fires so even
        #: the join handshakes are checked.
        self.monitor: SessionMonitor | None = None
        if config.checks:
            self.monitor = SessionMonitor(
                self, config.checks, sweep_interval=config.check_sweep
            )
        for spec in config.participants:
            self._connect(spec)
        for spec in config.participants:
            self._start_participant(spec.name)
        # Dynamics are scheduled before the warmup runs so profiles and
        # partition windows written against t=0 cover the whole run.
        for dynamic in config.dynamics:
            self._apply_dynamics(dynamic)
        self.clock.run_until(config.join_warmup)
        if config.mode is not FCMMode.FREE_ACCESS:
            self.server.set_mode(config.mode, by=config.chair)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def builder(cls, chair: str = "teacher", chair_joins: bool = True) -> SessionBuilder:
        """A fluent :class:`~repro.api.config.SessionBuilder`."""
        return SessionBuilder(chair=chair, chair_joins=chair_joins)

    @classmethod
    def build(
        cls,
        *participants: str,
        chair: str = "teacher",
        latency: float | None = None,
        jitter: float | None = None,
        loss: float | None = None,
        bandwidth_kbps: float | None = None,
        policy: FCMMode | str = FCMMode.FREE_ACCESS,
        seed: int = 0,
        heartbeats: float | None = 0.25,
        clock_sync: float | None = None,
        warmup: float = 1.0,
        presence_timeout: float = 1.0,
    ) -> "Session":
        """One-call construction for the common case: the named
        participants (plus the chair) on identical links."""
        builder = (
            cls.builder(chair=chair)
            .link(latency=latency, jitter=jitter, loss=loss,
                  bandwidth_kbps=bandwidth_kbps)
            .policy(policy)
            .seed(seed)
            .heartbeats(heartbeats)
            .clock_sync(clock_sync)
            .warmup(warmup)
            .presence(timeout=presence_timeout)
        )
        builder.participants(*participants)
        return builder.build()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Stop every periodic loop (heartbeats, clock sync, presence
        sweep, self-rescheduling dynamics profiles) so the event queue
        can drain.

        Idempotent and reentrant: the closed flag is set *before* any
        teardown runs, so repeated calls — including a shard tearing
        down a fleet of sessions where one ``close`` indirectly
        triggers another — never double-stop the loops.
        """
        if self._closed:
            return
        self._closed = True
        for client in self._clients.values():
            client.stop_heartbeats()
            client.stop_clock_sync()
        self.server.presence.stop()
        self.dynamics.cancel_profiles()
        if self.monitor is not None:
            self.monitor.stop()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current global virtual time."""
        return self.clock.now()

    def run_until(self, deadline: float) -> int:
        """Run queued events up to an absolute virtual time."""
        return self.clock.run_until(deadline)

    def run_for(self, delta: float) -> int:
        """Run queued events for a further ``delta`` virtual seconds."""
        return self.clock.advance(delta)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def client(self, member: str) -> DMPSClient:
        """The client endpoint of a participant.

        Raises
        ------
        SessionError
            For a name that was never part of this session.
        """
        if member not in self._clients:
            raise SessionError(f"no participant {member!r} in this session")
        return self._clients[member]

    @property
    def clients(self) -> dict[str, DMPSClient]:
        """Name -> client endpoint (a copy)."""
        return dict(self._clients)

    def members(self) -> list[str]:
        """Members that completed the join handshake with the server."""
        return self.server.members()

    def join(self, member: str, spec: ParticipantSpec | None = None) -> DMPSClient:
        """Late-join a participant: wire their link, send the Hello,
        start the configured loops.  A member who previously
        :meth:`leave`-d rejoins on their original station (``spec`` is
        ignored for them).  Advance the clock (e.g. :meth:`run_for`) to
        let the handshake complete."""
        if member in self._clients:
            raise SessionError(f"participant {member!r} already in the session")
        if member in self._departed:
            client = self._departed.pop(member)
            self._clients[member] = client
            self.network.set_host_up(client.host_name, True)
        else:
            spec = spec if spec is not None else ParticipantSpec(name=member)
            if spec.name != member:
                raise SessionError(
                    f"spec is for {spec.name!r}, not for joining member {member!r}"
                )
            self._connect(spec)
        self._start_participant(member)
        return self._clients[member]

    def leave(self, member: str) -> None:
        """Remove a participant: stop their loops, take their host down,
        release any floor they hold, and drop them from the roster
        (rejoinable later via :meth:`join`)."""
        client = self.client(member)
        client.stop_heartbeats()
        client.stop_clock_sync()
        self.network.set_host_up(client.host_name, False)
        self.server.leave(member)
        self._departed[member] = self._clients.pop(member)

    def disconnect(self, member: str) -> None:
        """Simulate losing a client (Figure 3's red-light scenario)."""
        self.client(member).disconnect()

    def reconnect(self, member: str) -> None:
        """Bring a disconnected client back, resuming heartbeats only
        when the session is configured to run them."""
        client = self.client(member)
        if self.config.heartbeat_interval is not None:
            client.reconnect(self.config.heartbeat_interval)
        else:
            self.network.set_host_up(client.host_name, True)

    # ------------------------------------------------------------------
    # Network dynamics
    # ------------------------------------------------------------------
    def degrade_link(
        self,
        member: str,
        *,
        latency: float | None = None,
        jitter: float | None = None,
        loss: float | None = None,
        bandwidth_kbps: float | None = None,
    ) -> None:
        """Change a member's star-link parameters right now (both
        directions); only the named fields change.  Scriptable:
        ``at(8.0, "degrade_link", "alice", loss=0.5)``."""
        client = self.client(member)
        self.dynamics.degrade(
            self.config.server_host,
            client.host_name,
            latency=latency,
            jitter=jitter,
            loss=loss,
            bandwidth_kbps=bandwidth_kbps,
        )

    def partition(self, *members: str) -> None:
        """Cut the named members (default: everyone but the chair) off
        from the server until :meth:`heal`.  Their hosts stay up — only
        the wires are cut, so messages count as ``blocked``, not
        ``to_down_host``.  Scriptable: ``at(8.0, "partition")``."""
        names = members if members else tuple(
            name for name in self._clients if name != self.config.chair
        )
        hosts = {self.client(name).host_name for name in names}
        self.dynamics.partition(hosts, {self.config.server_host})

    def heal(self) -> None:
        """Restore every link cut by :meth:`partition` (or by a
        configured :class:`~repro.api.config.PartitionSpec`)."""
        self.dynamics.heal()

    def churn(self, member: str, rejoin_after: float | None = None) -> None:
        """Host churn: the member leaves now and, with ``rejoin_after``,
        automatically rejoins that many virtual seconds later (on their
        original station).  A member who already rejoined by then (e.g.
        via an explicit :meth:`join`) is left alone.  Scriptable:
        ``at(5.0, "churn", "bob", rejoin_after=4.0)``."""
        if rejoin_after is not None and rejoin_after <= 0:
            raise SessionError(
                f"rejoin_after must be positive, got {rejoin_after!r}"
            )
        self.leave(member)
        if rejoin_after is not None:
            self.clock.call_later(rejoin_after, self._rejoin, member)

    def _rejoin(self, member: str) -> None:
        # A no-op once the member is already back or the session closed
        # (a rejoin must not restart loops close() just stopped).
        if self._closed or member in self._clients:
            return
        self.join(member)

    # ------------------------------------------------------------------
    # Floor control and boards
    # ------------------------------------------------------------------
    def set_mode(
        self,
        mode: FCMMode | str,
        by: str | None = None,
        group: str | None = None,
    ) -> None:
        """Change the floor mode (by policy name or mode); ``by``
        defaults to the session chair."""
        self.server.set_mode(
            resolve_mode(mode),
            by=by if by is not None else self.config.chair,
            group=group,
        )

    def request_floor(
        self,
        member: str,
        mode: FCMMode | None = None,
        group: str | None = None,
        target_member: str | None = None,
        target_group: str | None = None,
    ) -> None:
        """Send a member's floor request (decision arrives over the
        network; see ``client(member).decisions``)."""
        self.client(member).request_floor(
            mode=mode,
            group=group,
            target_member=target_member,
            target_group=target_group,
        )

    def release_floor(
        self,
        member: str,
        group: str | None = None,
        successor: str | None = None,
    ) -> None:
        """Send a member's floor release (token passes on arrival)."""
        self.client(member).release_floor(group=group, successor=successor)

    def post(
        self,
        member: str,
        content: str,
        kind: str = "message",
        group: str | None = None,
    ) -> None:
        """Send a member's message/annotation to a group's board."""
        self.client(member).post(content, kind=kind, group=group)

    def open_discussion(self, creator: str, invitees: tuple[str, ...] = ()) -> str:
        """Create a discussion subgroup server-side and invite members;
        returns the new group id."""
        group_id = self.server.open_discussion(creator)
        for invitee in invitees:
            self.server.invite(group_id, creator, invitee)
        return group_id

    def open_direct_contact(self, initiator: str, peer: str) -> str:
        """Create a private two-person window; returns the group id."""
        return self.server.open_direct_contact(initiator, peer)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def board(self, group: str | None = None) -> Whiteboard:
        """The server's authoritative whiteboard of a group."""
        return self.server.board(group)

    @property
    def log(self) -> EventBus:
        """The server's floor-control event log (the transcript)."""
        return self.server.control.log

    @property
    def bus(self) -> EventBus:
        """The session's event bus (:mod:`repro.events`) — the same
        object as :attr:`log`, under the redesigned subsystem's name:
        indexed queries, filtered ``subscribe``, ``save``/``load``."""
        return self.server.control.log

    def save_transcript(self, path) -> Path:
        """Persist the session transcript as a replayable JSONL file.

        The metadata block records what the live run concluded from the
        events — transcript metrics, stream-check verdicts, and the
        attached monitor's invariant summary when checks are configured
        — so ``repro replay`` can later reproduce the run's numbers
        byte-identically from the file alone.  Returns the path
        written.
        """
        from ..events.replay import build_meta
        from ..events.transcript import save_transcript

        # One snapshot serves both the metadata and the file, so the
        # recorded blocks can never drift from the persisted events.
        events = list(self.bus)
        meta = build_meta(
            events,
            monitor=self.monitor,
            extra={
                "session": {
                    "chair": self.config.chair,
                    "members": sorted(self._clients),
                    "policy": self.config.mode.value,
                    "seed": self.config.seed,
                    "duration": self.clock.now(),
                    "listener_errors": self.bus.listener_error_count,
                }
            },
        )
        return save_transcript(path, events, meta=meta)

    def tracer(self):
        """The causal plane of this session, on demand.

        Builds a :class:`~repro.trace.causal.CausalTracer` over the
        retained transcript (plus the monitor's recorded violations as
        instant spans) — a pure read: nothing subscribes, nothing is
        buffered while the session runs, and two calls yield identical
        spans.  The tracer is seeded with the session seed, so span
        ids are stable across reruns of the same configuration.
        """
        from ..trace import CausalTracer

        tracer = CausalTracer.from_events(
            list(self.bus), seed=self.config.seed
        )
        if self.monitor is not None:
            tracer.add_violations(self.monitor.violations)
        return tracer

    def save_trace(self, path) -> Path:
        """Persist the causal plane as a ``TRACE_*.json`` document.

        The metadata carries only the session seed — everything else
        in the document is a deterministic function of the transcript,
        which keeps the bytes reproducible from a saved transcript
        alone (``repro trace record``).  Returns the path written.
        """
        from ..trace import save_trace

        return save_trace(
            path,
            self.tracer().spans(),
            meta={"seed": self.config.seed},
        )

    @property
    def presence(self) -> PresenceMonitor:
        """The server's presence monitor (connection lights)."""
        return self.server.presence

    def assert_invariant(self, name: str) -> None:
        """Check one named invariant (:mod:`repro.check.monitor`) right
        now; scriptable as ``at(8.0, "assert_invariant",
        name="single_speaker")``.

        The violation (if any) is recorded on the session monitor when
        one is attached — even for a name outside the monitor's own
        configured set — then raised.

        Raises
        ------
        CheckError
            With the violation detail, or for an unknown name.
        """
        detail = evaluate_invariant(name, self)
        if self.monitor is not None:
            if detail is not None:
                self.monitor.record_external(name, detail)
            else:
                # A passing spot check ends any episode this monitor
                # could not end itself (names outside its own set).
                self.monitor.clear_episodes(name)
        if detail is not None:
            raise CheckError(
                f"invariant {name!r} violated at t={self.now():.3f}: {detail}"
            )

    def report(self, trace: bool = False) -> SessionReport:
        """Aggregate every layer's counters into a
        :class:`~repro.session.report.SessionReport` (including the
        monitor's invariant violations when checks are attached).
        ``trace=True`` also folds the causal plane in, adding the
        report's trace line (span count per kind)."""
        return summarize(
            self.server,
            list(self._clients.values()),
            monitor=self.monitor,
            metrics=self.metrics,
            tracer=self.tracer() if trace else None,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _connect(self, spec: ParticipantSpec) -> None:
        client = DMPSClient(
            spec.name,
            spec.host_name,
            self.network,
            server_host=self.config.server_host,
            clock_offset=spec.clock_offset,
            drift_rate=spec.drift_rate,
        )
        link = spec.link if spec.link is not None else self.config.link
        self.network.connect_both(
            self.config.server_host, spec.host_name, link.to_link()
        )
        self._clients[spec.name] = client

    def _apply_dynamics(self, dynamic: DynamicsSpec | PartitionSpec) -> None:
        hosts_of = {
            spec.name: spec.host_name for spec in self.config.participants
        }
        if isinstance(dynamic, PartitionSpec):
            members = dynamic.members or tuple(
                name for name in hosts_of if name != self.config.chair
            )
            self.dynamics.partition(
                {hosts_of[name] for name in members},
                {self.config.server_host},
                at=dynamic.start,
                heal_at=dynamic.heal_at,
            )
            return
        members = dynamic.members or tuple(hosts_of)
        for name in members:
            self.dynamics.apply(
                dynamic.profile, self.config.server_host, hosts_of[name]
            )

    def _start_participant(self, member: str) -> None:
        client = self._clients[member]
        client.join(is_chair=(member == self.config.chair))
        if self.config.heartbeat_interval is not None:
            client.start_heartbeats(self.config.heartbeat_interval)
        if self.config.clock_sync_interval is not None:
            client.start_clock_sync(interval=self.config.clock_sync_interval)
