"""Declarative configuration for the :mod:`repro.api` session facade.

A DMPS session is a *star*: one server owning the global clock, floor
control, and the authoritative whiteboards, plus one client per
participant.  Before this module existed every entry point re-wired
that star by hand (clock, network, links, server, clients, joins,
heartbeats — ~15 lines of boilerplate each).  Here the same topology is
described once, declaratively:

* :class:`LinkSpec` — latency/jitter/loss/bandwidth of one star link;
* :class:`ParticipantSpec` — one member and their station parameters;
* :class:`ResourceSpec` — server capacity and the paper's ``a``/``b``
  thresholds;
* :class:`DynamicsSpec` / :class:`PartitionSpec` — time-varying network
  behaviour (link profiles from :mod:`repro.net.dynamics`, partition
  windows) applied to the star when the session is built;
* :class:`SessionConfig` — the full frozen description of a session,
  including the named runtime invariants (``checks``) a
  :class:`~repro.check.monitor.SessionMonitor` watches while it runs;
* :class:`SessionBuilder` — a fluent builder producing a config or a
  live :class:`~repro.api.session.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..core.modes import FCMMode
from ..core.resources import ResourceModel, ResourceVector
from ..errors import SessionError
from ..net.dynamics import GilbertElliott, LinkProfile, RampProfile
from ..net.simnet import Link
from .policies import resolve_mode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import Session

__all__ = [
    "DynamicsSpec",
    "LinkSpec",
    "ParticipantSpec",
    "PartitionSpec",
    "ResourceSpec",
    "SessionConfig",
    "SessionBuilder",
]


@dataclass(frozen=True)
class LinkSpec:
    """Parameters of one (symmetric) client<->server star link."""

    latency: float = 0.02
    jitter: float = 0.0
    loss: float = 0.0
    bandwidth_kbps: float | None = None

    def to_link(self) -> Link:
        """Materialize as a :class:`~repro.net.simnet.Link`."""
        return Link(
            base_latency=self.latency,
            jitter=self.jitter,
            loss_probability=self.loss,
            bandwidth_kbps=self.bandwidth_kbps,
        )


@dataclass(frozen=True)
class ParticipantSpec:
    """One session participant and their station imperfections.

    ``link=None`` means the participant uses the session-wide default
    :class:`LinkSpec`; ``clock_offset``/``drift_rate`` configure the
    client's :class:`~repro.clock.drift.DriftingClock`.
    """

    name: str
    chair: bool = False
    host: str = ""
    link: LinkSpec | None = None
    clock_offset: float = 0.0
    drift_rate: float = 0.0

    @property
    def host_name(self) -> str:
        """The network host this participant's client runs on."""
        return self.host or f"host-{self.name}"


@dataclass(frozen=True)
class ResourceSpec:
    """Server station capacity plus the Z spec's ``a``/``b`` fractions."""

    network_kbps: float = 100_000.0
    cpu_share: float = 16.0
    memory_mb: float = 8192.0
    basic_fraction: float = 0.3
    minimal_fraction: float = 0.1

    def to_model(self) -> ResourceModel:
        """Materialize as a :class:`~repro.core.resources.ResourceModel`."""
        return ResourceModel(
            ResourceVector(
                network_kbps=self.network_kbps,
                cpu_share=self.cpu_share,
                memory_mb=self.memory_mb,
            ),
            basic_fraction=self.basic_fraction,
            minimal_fraction=self.minimal_fraction,
        )


@dataclass(frozen=True)
class DynamicsSpec:
    """One time-varying link profile applied to star links at build.

    ``members`` names whose client<->server link pair the profile
    drives; empty means every participant's.  Profiles are scheduled on
    the session clock *before* the join warmup runs, so a profile
    written against t=0 covers the whole session.
    """

    profile: LinkProfile
    members: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.profile, LinkProfile):
            raise SessionError(
                f"dynamics need a LinkProfile, got {self.profile!r}"
            )


@dataclass(frozen=True)
class PartitionSpec:
    """A scheduled partition-and-heal window.

    At virtual time ``start`` the named ``members`` (empty: every
    participant except the chair) are cut off from the server; after
    ``duration`` seconds the links heal.  Messages crossing the cut
    count as ``blocked`` in the network stats.
    """

    start: float
    duration: float
    members: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.start < 0:
            raise SessionError(f"negative partition start: {self.start!r}")
        if self.duration <= 0:
            raise SessionError(
                f"partition duration must be positive, got {self.duration!r}"
            )

    @property
    def heal_at(self) -> float:
        """The virtual time the partition heals."""
        return self.start + self.duration


@dataclass(frozen=True)
class SessionConfig:
    """The full, frozen description of one DMPS session.

    ``heartbeat_interval`` / ``clock_sync_interval`` of ``None`` disable
    the respective client-side loop; ``presence_sweep`` of ``None``
    keeps the presence monitor's default sweep.  ``join_warmup`` is how
    far virtual time runs after the join handshakes are sent, so a
    freshly built session already has all members joined.

    ``checks`` names runtime invariants from
    :mod:`repro.check.monitor` (e.g. ``"single_speaker"``); a non-empty
    tuple makes the session own a
    :class:`~repro.check.monitor.SessionMonitor` that re-checks them on
    every floor event and every ``check_sweep`` virtual seconds, with
    violations folded into the session report.
    """

    participants: tuple[ParticipantSpec, ...] = ()
    chair: str = "teacher"
    link: LinkSpec = field(default_factory=LinkSpec)
    resources: ResourceSpec = field(default_factory=ResourceSpec)
    dynamics: tuple[DynamicsSpec | PartitionSpec, ...] = ()
    mode: FCMMode = FCMMode.FREE_ACCESS
    seed: int = 0
    presence_timeout: float = 1.0
    presence_sweep: float | None = None
    heartbeat_interval: float | None = 0.25
    clock_sync_interval: float | None = None
    join_warmup: float = 1.0
    server_host: str = "server"
    checks: tuple[str, ...] = ()
    check_sweep: float = 0.5
    #: Ring-buffer capacity of the server transcript; ``None`` keeps
    #: every event.  Fleet runs set a finite capacity so per-session
    #: memory stays bounded however long the simulation runs.
    transcript_capacity: int | None = None
    #: Engine name, validated against :data:`repro.engine.ENGINES`:
    #: ``"reference"`` or ``"compiled"``.  Both values run the same
    #: facade code, which arbitrates each floor request per message on
    #: the reference stack; the compiled engine serves fleets and
    #: policy cells (:func:`repro.engine.make_engine_policy`).  An
    #: execution knob, never part of the seed.
    engine: str = "reference"
    #: Mode of the session's live metrics fold
    #: (:class:`~repro.metrics.fold.MetricsFold`): ``"exact"`` retains
    #: latency samples for nearest-rank percentiles; ``"fold"`` bins
    #: them into the mergeable histogram so long-lived (ring-bounded)
    #: sessions keep O(members) metric state.
    metrics_mode: str = "exact"

    def validate(self) -> None:
        """Reject inconsistent topologies before any wiring happens."""
        if not self.participants:
            raise SessionError("a session needs at least one participant")
        names = [spec.name for spec in self.participants]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise SessionError(f"duplicate participants: {sorted(duplicates)!r}")
        if self.join_warmup < 0:
            raise SessionError(f"negative join warmup: {self.join_warmup!r}")
        for spec in self.participants:
            if spec.chair and spec.name != self.chair:
                raise SessionError(
                    f"participant {spec.name!r} marked chair but the session "
                    f"chair is {self.chair!r}"
                )
        for dynamic in self.dynamics:
            if not isinstance(dynamic, (DynamicsSpec, PartitionSpec)):
                raise SessionError(
                    f"dynamics entries must be DynamicsSpec or PartitionSpec, "
                    f"got {dynamic!r}"
                )
            unknown = sorted(set(dynamic.members) - set(names))
            if unknown:
                raise SessionError(
                    f"dynamics target unknown participants: {unknown!r}"
                )
        if self.checks:
            from ..check.monitor import invariant_names

            unknown_checks = sorted(set(self.checks) - set(invariant_names()))
            if unknown_checks:
                raise SessionError(
                    f"unknown check invariants {unknown_checks!r}; "
                    f"registered: {invariant_names()}"
                )
        if self.check_sweep <= 0:
            raise SessionError(
                f"check_sweep must be positive, got {self.check_sweep!r}"
            )
        if self.transcript_capacity is not None and self.transcript_capacity < 1:
            raise SessionError(
                f"transcript_capacity must be positive or None, "
                f"got {self.transcript_capacity!r}"
            )
        from ..engine import ENGINES

        if self.engine not in ENGINES:
            raise SessionError(
                f"unknown session engine {self.engine!r}; one of {list(ENGINES)}"
            )
        if self.metrics_mode not in ("exact", "fold"):
            raise SessionError(
                f"unknown metrics mode {self.metrics_mode!r}; "
                f"one of ['exact', 'fold']"
            )


class SessionBuilder:
    """Fluent builder for :class:`SessionConfig` / live sessions.

    Example::

        session = (SessionBuilder(chair="teacher")
                   .participants("alice", "bob")
                   .link(latency=0.02, jitter=0.005)
                   .policy("equal_control")
                   .seed(7)
                   .build())

    The chair is added as a participant automatically unless the
    builder was created with ``chair_joins=False`` (a server-side-only
    chair, useful for pure monitoring workloads).
    """

    def __init__(self, chair: str = "teacher", chair_joins: bool = True) -> None:
        self._config = SessionConfig(chair=chair)
        self._chair_joins = chair_joins
        self._specs: dict[str, ParticipantSpec] = {}

    def _set(self, **changes) -> "SessionBuilder":
        self._config = replace(self._config, **changes)
        return self

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def participant(
        self,
        name: str,
        *,
        latency: float | None = None,
        jitter: float | None = None,
        loss: float | None = None,
        bandwidth_kbps: float | None = None,
        clock_offset: float = 0.0,
        drift_rate: float = 0.0,
        host: str = "",
    ) -> "SessionBuilder":
        """Add (or re-declare) one participant; link parameters given
        here override the session-wide defaults for this member only."""
        link = None
        if any(v is not None for v in (latency, jitter, loss, bandwidth_kbps)):
            default = self._config.link
            link = LinkSpec(
                latency=latency if latency is not None else default.latency,
                jitter=jitter if jitter is not None else default.jitter,
                loss=loss if loss is not None else default.loss,
                bandwidth_kbps=(
                    bandwidth_kbps
                    if bandwidth_kbps is not None
                    else default.bandwidth_kbps
                ),
            )
        self._specs[name] = ParticipantSpec(
            name=name,
            chair=(name == self._config.chair),
            host=host,
            link=link,
            clock_offset=clock_offset,
            drift_rate=drift_rate,
        )
        return self

    def participants(self, *names: str) -> "SessionBuilder":
        """Add several participants with default station parameters."""
        for name in names:
            self.participant(name)
        return self

    def link(
        self,
        latency: float | None = None,
        jitter: float | None = None,
        loss: float | None = None,
        bandwidth_kbps: float | None = None,
    ) -> "SessionBuilder":
        """Set the session-wide default link parameters."""
        updates = {
            key: value
            for key, value in (
                ("latency", latency),
                ("jitter", jitter),
                ("loss", loss),
                ("bandwidth_kbps", bandwidth_kbps),
            )
            if value is not None
        }
        return self._set(link=replace(self._config.link, **updates))

    def resources(self, **kwargs: float) -> "SessionBuilder":
        """Override server capacity / threshold fields of
        :class:`ResourceSpec` (keyword arguments match its fields)."""
        return self._set(resources=replace(self._config.resources, **kwargs))

    # ------------------------------------------------------------------
    # Network dynamics
    # ------------------------------------------------------------------
    def dynamics(
        self, *specs: DynamicsSpec | PartitionSpec
    ) -> "SessionBuilder":
        """Attach time-varying network behaviour (profiles from
        :mod:`repro.net.dynamics` wrapped in :class:`DynamicsSpec`,
        or :class:`PartitionSpec` windows)."""
        return self._set(dynamics=self._config.dynamics + specs)

    def loss_burst(
        self,
        loss: float = 0.9,
        *,
        loss_good: float | None = None,
        mean_good: float = 5.0,
        mean_bad: float = 1.0,
        start: float = 0.0,
        members: tuple[str, ...] = (),
    ) -> "SessionBuilder":
        """Bursty loss: a seeded Gilbert–Elliott model alternating the
        star links between ``loss_good`` and ``loss`` (the bad-state
        probability), with mean sojourns ``mean_good``/``mean_bad``.
        ``loss_good=None`` keeps each link's configured static loss in
        the good state — bursts only ever add loss."""
        return self.dynamics(
            DynamicsSpec(
                GilbertElliott(
                    loss_good=loss_good,
                    loss_bad=loss,
                    mean_good=mean_good,
                    mean_bad=mean_bad,
                    start=start,
                ),
                members=members,
            )
        )

    def delay_ramp(
        self,
        to_latency: float,
        *,
        start: float,
        end: float,
        from_latency: float | None = None,
        steps: int = 20,
        members: tuple[str, ...] = (),
    ) -> "SessionBuilder":
        """Sweep star-link latency linearly to ``to_latency`` between
        virtual times ``start`` and ``end`` — the canonical "delay
        creeps past the paper's bound" workload."""
        return self.dynamics(
            DynamicsSpec(
                RampProfile(
                    "base_latency",
                    start=start,
                    end=end,
                    to_value=to_latency,
                    from_value=from_latency,
                    steps=steps,
                ),
                members=members,
            )
        )

    def partition_window(
        self,
        start: float,
        duration: float,
        *,
        members: tuple[str, ...] = (),
    ) -> "SessionBuilder":
        """Cut ``members`` (default: everyone but the chair) off from
        the server at ``start``; heal after ``duration`` seconds."""
        return self.dynamics(
            PartitionSpec(start=start, duration=duration, members=members)
        )

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def policy(self, policy: "FCMMode | str") -> "SessionBuilder":
        """Set the initial floor policy by mode or registry name
        (``"free_access"``, ``"equal_control"``, ...)."""
        return self._set(mode=resolve_mode(policy))

    def seed(self, value: int) -> "SessionBuilder":
        """Seed for network jitter/loss randomness (reproducible runs)."""
        return self._set(seed=value)

    def checks(self, *names: str, sweep: float | None = None) -> "SessionBuilder":
        """Attach runtime invariants (:mod:`repro.check.monitor`) the
        session monitors on every floor event — e.g.
        ``.checks("single_speaker", "queue_consistent")``.  Repeated
        names (across calls too) are kept once.  ``sweep`` overrides
        the periodic re-check interval (virtual seconds)."""
        self._set(checks=tuple(dict.fromkeys(self._config.checks + names)))
        if sweep is not None:
            self._set(check_sweep=sweep)
        return self

    def presence(
        self, timeout: float | None = None, sweep: float | None = None
    ) -> "SessionBuilder":
        """Configure the presence monitor (heartbeat timeout / sweep)."""
        if timeout is not None:
            self._set(presence_timeout=timeout)
        if sweep is not None:
            self._set(presence_sweep=sweep)
        return self

    def heartbeats(self, interval: float | None) -> "SessionBuilder":
        """Client heartbeat period; ``None`` disables heartbeats."""
        return self._set(heartbeat_interval=interval)

    def clock_sync(self, interval: float | None) -> "SessionBuilder":
        """Cristian clock-sync period; ``None`` disables syncing."""
        return self._set(clock_sync_interval=interval)

    def warmup(self, seconds: float) -> "SessionBuilder":
        """Virtual time to run right after joins (handshake settling)."""
        return self._set(join_warmup=seconds)

    def server_host(self, name: str) -> "SessionBuilder":
        """Rename the server's network host (default ``"server"``)."""
        return self._set(server_host=name)

    def transcript_capacity(self, capacity: int | None) -> "SessionBuilder":
        """Bound the server transcript to the newest ``capacity``
        events (ring mode); ``None`` keeps the full history."""
        return self._set(transcript_capacity=capacity)

    def metrics_mode(self, mode: str) -> "SessionBuilder":
        """Live metrics fold mode: ``"exact"`` (default) or ``"fold"``
        for O(members) binned state on long-lived sessions."""
        return self._set(metrics_mode=mode)

    def engine(self, name: str) -> "SessionBuilder":
        """Set :attr:`SessionConfig.engine`: ``"reference"`` (default)
        or ``"compiled"``, validated against
        :data:`repro.engine.ENGINES`.  Both values run the same facade
        code, which arbitrates per message on the reference stack."""
        return self._set(engine=name)

    # ------------------------------------------------------------------
    # Products
    # ------------------------------------------------------------------
    def config(self) -> SessionConfig:
        """Freeze the current state into a :class:`SessionConfig`."""
        specs = list(self._specs.values())
        chair = self._config.chair
        if self._chair_joins and chair not in self._specs:
            specs.insert(0, ParticipantSpec(name=chair, chair=True))
        config = replace(self._config, participants=tuple(specs))
        config.validate()
        return config

    def build(self) -> "Session":
        """Stand the session up: wire, join everyone, settle the clock."""
        from .session import Session

        return Session(self.config())
