"""Pluggable floor policies behind one registry.

The paper's four FCM modes and the two baselines they are compared
against — one FIFO queue (ablation A4) and no floor control at all —
share the :class:`FloorPolicy` protocol —

    ``request(member, now) -> granted?``
    ``release(member, now) -> new holder``
    ``speakers() -> set`` / ``waiting() -> list``

— and a name registry, so benchmarks and the CLI compare policies *by
name* (``make_policy("fifo")`` vs ``make_policy("equal_control")``)
instead of hand-wiring each implementation.

The four mode policies are backed by the real
:class:`~repro.core.server.FloorControlServer` arbitration (they are
the paper's code path, not re-implementations); the two baseline
policies, :class:`FIFOPolicy` and :class:`FreeForAllPolicy`, are
self-contained.

Beyond the protocol, the six built-in policies here and their compiled
twins in :mod:`repro.engine.compiled` share one driving surface —

    ``request_batch(submissions) -> outcomes``  one tick's requests
    ``stats``      :class:`~repro.core.arbitrator.ArbitrationStats`
    ``evicted``    transcript events dropped by the ring bound
    ``events()``   the retained transcript as a list of ``FloorEvent``

— which is all :class:`PolicyDriver`, the one workload loop behind
fleet sessions and bare-policy sweep cells, reads.  The baselines count
one ``granted`` or ``queued`` per request outcome.  Custom registered
policies need only the protocol; they are for direct
:func:`make_policy` use.
"""

from __future__ import annotations

from typing import Callable, Iterable, Protocol, runtime_checkable

from ..clock.virtual import VirtualClock
from ..core.arbitrator import ArbitrationStats
from ..core.floor import RequestOutcome, check_floor_time
from ..core.modes import FCMMode
from ..core.resources import ResourceModel, ResourceVector
from ..core.server import FloorControlServer
from ..errors import FloorControlError, ReproError
from ..events import EventBus, EventKind, FloorEvent

__all__ = [
    "FloorPolicy",
    "ArbitratedPolicy",
    "FIFOPolicy",
    "FreeForAllPolicy",
    "PolicyDriver",
    "register_policy",
    "unregister_policy",
    "make_policy",
    "policy_names",
    "resolve_mode",
]


@runtime_checkable
class FloorPolicy(Protocol):
    """The uniform floor-control interface every policy implements."""

    @property
    def name(self) -> str:
        """Registry name of this policy (round-trips via the registry)."""
        ...

    def request(self, member: str, now: float = 0.0) -> bool:
        """Ask for the floor; ``True`` when granted immediately."""
        ...

    def release(self, member: str, now: float = 0.0) -> str | None:
        """Give up the floor; returns the successor (if any)."""
        ...

    def speakers(self) -> set[str]:
        """Members currently allowed to deliver."""
        ...

    def waiting(self) -> list[str]:
        """Members queued for the floor, FIFO order."""
        ...


class ArbitratedPolicy:
    """One FCM mode, driven by the paper's real arbitration machinery.

    The policy owns a private :class:`FloorControlServer` with generous
    resources; members are registered on first use, so the policy can be
    driven exactly like the baselines.  Standalone conventions for the
    subgroup modes (documented interpretation, not in the paper):

    * *group discussion* — requesters are auto-invited into one shared
      discussion subgroup chaired by the session chair;
    * *direct contact* — the peer defaults to the session chair; the
      chair's own requests need an explicit ``target_member``.
    """

    def __init__(
        self,
        mode: FCMMode,
        chair: str = "teacher",
        log_capacity: int | None = None,
        clock: VirtualClock | None = None,
    ) -> None:
        self.mode = mode
        #: Private by default; callers that *drive* time (the live
        #: serving layer paces it against the wall clock, lockstep
        #: soaks advance it per round) pass their own clock in.
        self._clock = clock if clock is not None else VirtualClock()
        self.server = FloorControlServer(
            self._clock,
            ResourceModel(
                ResourceVector(network_kbps=1e6, cpu_share=64.0, memory_mb=1e5)
            ),
            chair=chair,
            log_capacity=log_capacity,
        )
        self.server.set_mode(self.server.session_group, mode, by=chair)
        self._discussion: str | None = None
        self._contact_pairs: list[tuple[str, str]] = []

    @property
    def name(self) -> str:
        """Registry name — the mode's wire value."""
        return self.mode.value

    @property
    def stats(self) -> ArbitrationStats:
        """The private arbitrator's decision counters."""
        return self.server.arbitrator.stats

    @property
    def evicted(self) -> int:
        """Events dropped by the transcript ring (0 when unbounded)."""
        return self.server.log.evicted

    def events(self) -> list[FloorEvent]:
        """The retained transcript, oldest first."""
        return list(self.server.log)

    def request(
        self,
        member: str,
        now: float = 0.0,
        target_member: str | None = None,
        target_group: str | None = None,
    ) -> bool:
        """Arbitrate one floor request; ``True`` when granted."""
        self._ensure_member(member)
        if self.mode is FCMMode.GROUP_DISCUSSION and target_group is None:
            target_group = self._shared_discussion(member)
        if self.mode is FCMMode.DIRECT_CONTACT and target_member is None:
            if member == self.server.chair:
                return False  # the chair must name a peer explicitly
            target_member = self.server.chair
        grant = self.server.request_floor(
            member,
            mode=self.mode,
            target_member=target_member,
            target_group=target_group,
            requested_at=now,
        )
        if (
            grant.outcome is RequestOutcome.GRANTED
            and self.mode is FCMMode.DIRECT_CONTACT
        ):
            self._contact_pairs.append((member, target_member or ""))
        return grant.outcome is RequestOutcome.GRANTED

    def request_batch(self, submissions: list[tuple[str, float]]) -> list[bool]:
        """Arbitrate one tick's requests together (the fleet hot path).

        ``submissions`` is ``(member, now)`` pairs in arrival order.
        Decisions match calling :meth:`request` per pair; the session
        modes (free access / equal control) route through
        :meth:`FloorControlServer.request_floor_batch` and the
        arbitrator's batch seam, while the subgroup modes — whose
        per-request target resolution is inherently sequential — fall
        back to the per-call path.
        """
        if self.mode in (FCMMode.GROUP_DISCUSSION, FCMMode.DIRECT_CONTACT):
            return [self.request(member, now) for member, now in submissions]
        for member, _ in submissions:
            self._ensure_member(member)
        grants = self.server.request_floor_batch(
            [(member, self.mode, now) for member, now in submissions]
        )
        return [grant.outcome is RequestOutcome.GRANTED for grant in grants]

    def release(self, member: str, now: float = 0.0) -> str | None:
        """Pass the token (equal control) or close a contact pair."""
        if self.mode is FCMMode.EQUAL_CONTROL:
            try:
                return self.server.release_floor(
                    self.server.session_group, member
                )
            except FloorControlError:
                return None
        if self.mode is FCMMode.DIRECT_CONTACT:
            self._contact_pairs = [
                pair for pair in self._contact_pairs if member not in pair
            ]
        return None

    def speakers(self) -> set[str]:
        """Members the mode currently allows to deliver."""
        if self.mode is FCMMode.GROUP_DISCUSSION:
            if self._discussion is None:
                return set()
            return self.server.current_speakers(self._discussion)
        if self.mode is FCMMode.DIRECT_CONTACT:
            return {member for pair in self._contact_pairs for member in pair}
        return self.server.current_speakers(self.server.session_group)

    def waiting(self) -> list[str]:
        """The equal-control token queue (empty for the other modes)."""
        if self.mode is not FCMMode.EQUAL_CONTROL:
            return []
        return self.server.arbitrator.token(self.server.session_group).waiting()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_member(self, member: str) -> None:
        if member == self.server.chair:
            return
        try:
            self.server.registry.member(member)
        except FloorControlError:
            self.server.join(member)

    def _shared_discussion(self, member: str) -> str:
        chair = self.server.chair
        if self._discussion is None:
            self._discussion = self.server.open_discussion(chair)
        group = self.server.registry.group(self._discussion)
        if member not in group:
            invitation = self.server.invite(self._discussion, chair, member)
            self.server.respond(invitation.invitation_id, accept=True)
        return self._discussion


class _LoggedBaseline:
    """The shared surface of the two baseline policies: a replayable
    transcript (:attr:`log`), decision counters and a per-call batch
    seam.  Subclasses define ``name`` and ``request``."""

    def __init__(self, log_capacity: int | None) -> None:
        self.log = EventBus(capacity=log_capacity)
        self.stats = ArbitrationStats()
        self._seen: set[str] = set()

    @property
    def evicted(self) -> int:
        """Events dropped by the transcript ring (0 when unbounded)."""
        return self.log.evicted

    def events(self) -> list[FloorEvent]:
        """The retained transcript, oldest first."""
        return list(self.log)

    def request_batch(self, submissions: list[tuple[str, float]]) -> list[bool]:
        """One tick's ``(member, now)`` requests, decided per call."""
        return [self.request(member, now) for member, now in submissions]

    def _log_request(self, member: str, now: float) -> None:
        check_floor_time(now)
        if member not in self._seen:
            self._seen.add(member)
            self.log.append(now, EventKind.JOIN, member, "session")
        self.log.append(now, EventKind.REQUEST, member, "session", self.name,
                        data={"mode": self.name})

    def _log_grant(self, member: str, now: float) -> None:
        self.stats.granted += 1
        self.log.append(now, EventKind.GRANT, member, "session", self.name,
                        data={"reason": None, "mode": self.name})


class FIFOPolicy(_LoggedBaseline):
    """The A4 baseline: one global FIFO queue, no modes, no member
    priorities, no resource awareness.  Whoever asks first speaks;
    everyone else waits, the chair included — which is what the
    mode/priority/resource machinery of the paper avoids.

    :attr:`grants` counts floor hand-overs (first grants and queue
    promotions) and :attr:`waits` members added to the queue.  The
    policy also records a replayable transcript (:attr:`log`) in the
    server's event vocabulary, so baseline runs are comparable — and
    byte-identity-checkable against the compiled engine — with the mode
    policies: ``JOIN`` on a member's first request, ``REQUEST`` plus
    ``GRANT``/``QUEUE`` per ask (queue events carry the holder reason
    and the 1-based position), ``TOKEN_PASS`` on a successful release.
    Baselines have no virtual clock, so events carry the workload
    timestamps the caller passes as ``now``; a non-finite ``now`` raises
    :class:`~repro.errors.FloorControlError` before anything changes.
    """

    name = "fifo"

    def __init__(self, log_capacity: int | None = None) -> None:
        super().__init__(log_capacity)
        self.grants = 0
        self.waits = 0
        self._holder: str | None = None
        self._queue: list[str] = []

    def request(self, member: str, now: float = 0.0) -> bool:
        """Single global queue: first asker speaks, the rest wait."""
        self._log_request(member, now)
        if self._holder is None:
            self._holder = member
            self.grants += 1
        if self._holder == member:
            self._log_grant(member, now)
            return True
        if member not in self._queue:
            self._queue.append(member)
            self.waits += 1
        self.stats.queued += 1
        reason = f"floor held by {self._holder!r}"
        self.log.append(
            now, EventKind.QUEUE, member, "session", reason,
            data={"reason": reason, "mode": self.name,
                  "position": self._queue.index(member) + 1},
        )
        return False

    def release(self, member: str, now: float = 0.0) -> str | None:
        """Head of the queue takes over; stale releases are ignored."""
        check_floor_time(now)
        if self._holder != member:
            return None
        successor = self._queue.pop(0) if self._queue else None
        self._holder = successor
        if successor is not None:
            self.grants += 1
        self.log.append(now, EventKind.TOKEN_PASS, member, "session",
                        successor or "", data={"to": successor})
        return successor

    def speakers(self) -> set[str]:
        """The single current holder (or nobody)."""
        return {self._holder} if self._holder else set()

    def waiting(self) -> list[str]:
        """The FIFO wait queue."""
        return list(self._queue)


class FreeForAllPolicy(_LoggedBaseline):
    """The no-floor-control baseline: the situation floor control
    exists to prevent.

    Every request is granted and counts as an uncontrolled post.  Posts
    from distinct authors closer than ``collision_window`` seconds
    garble each other on a shared whiteboard; :attr:`collisions` counts
    them.  Like :class:`FIFOPolicy` the policy records a replayable
    transcript (:attr:`log`): ``JOIN`` on first request, then
    ``REQUEST`` + ``GRANT`` per post, at the caller's workload
    timestamps, which must be finite.
    """

    name = "free_for_all"

    def __init__(
        self, collision_window: float = 0.25, log_capacity: int | None = None
    ) -> None:
        super().__init__(log_capacity)
        self.collision_window = collision_window
        self.collisions = 0
        self._posts: list[tuple[float, str]] = []

    def request(self, member: str, now: float = 0.0) -> bool:
        """Always granted — that is the point of this baseline."""
        self._log_request(member, now)
        for time, author in reversed(self._posts):
            if now - time > self.collision_window:
                break
            if author != member:
                self.collisions += 1
                break
        self._posts.append((now, member))
        self._log_grant(member, now)
        return True

    def release(self, member: str, now: float = 0.0) -> str | None:
        """No floor to release."""
        check_floor_time(now)
        return None

    def speakers(self) -> set[str]:
        """Everyone who ever spoke."""
        return set(self._seen)

    def waiting(self) -> list[str]:
        """Nobody ever waits."""
        return []

    def posts(self) -> int:
        """How many uncontrolled posts were recorded."""
        return len(self._posts)

    def collision_rate(self) -> float:
        """Fraction of posts that collided with another author's."""
        if not self._posts:
            return 0.0
        return self.collisions / len(self._posts)


class PolicyDriver:
    """Feed one workload stream to one built-in policy.

    The single request/release/post loop behind fleet sessions and
    bare-policy sweep cells.  The workload is an iterable of plain
    ``(time, member, action)`` rows in chronological order — what
    :func:`repro.fabric.workload.stream_rows` yields; a list of
    :class:`~repro.workload.generator.RequestEvent` converts once with
    ``[(e.time, e.member, e.action) for e in events]``.  Consecutive
    requests go to the policy together through ``request_batch``; a
    release first decides the pending requests, so decisions match
    calling ``request`` and ``release`` per event.  Posts never touch
    the policy; they are only counted.  Requests and services (grants
    and token hand-offs) feed ``fold``'s
    :meth:`~repro.metrics.fold.MetricsFold.requested` /
    :meth:`~repro.metrics.fold.MetricsFold.serve` primitives; the
    grant/queue split is the policy's own ``stats``.
    """

    __slots__ = ("policy", "fold", "events", "requests", "posts", "_stream", "_next")

    def __init__(self, policy, fold, workload: Iterable) -> None:
        self.policy = policy
        self.fold = fold
        #: Workload events consumed (requests + releases + posts).
        self.events = 0
        self.requests = 0
        self.posts = 0
        self._stream = iter(workload)
        self._next = next(self._stream, None)

    def advance(self, until: float) -> int:
        """Consume every event due at or before ``until``; returns how
        many were consumed."""
        policy = self.policy
        fold = self.fold
        stream = self._stream
        batch: list[tuple[str, float]] = []
        consumed = posts = 0
        row = self._next
        while row is not None and row[0] <= until:
            when, member, action = row
            consumed += 1
            if action == "request":
                batch.append((member, when))
            elif action == "release":
                if batch:
                    self._decide(batch)
                    batch = []
                served = policy.release(member, when)
                if served:
                    fold.serve(served, when)
            else:  # post
                posts += 1
            row = next(stream, None)
        if batch:
            self._decide(batch)
        self._next = row
        self.events += consumed
        self.posts += posts
        return consumed

    def _decide(self, batch: list[tuple[str, float]]) -> None:
        self.requests += len(batch)
        fold = self.fold
        for member, when in batch:
            fold.requested(member, when)
        for (member, when), granted in zip(batch, self.policy.request_batch(batch)):
            if granted:
                fold.serve(member, when)

    def close(self) -> None:
        """Drop the rest of the workload stream; idempotent."""
        self._stream = iter(())
        self._next = None


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Callable[..., FloorPolicy]] = {}


def register_policy(name: str, factory: Callable[..., FloorPolicy]) -> None:
    """Register a policy factory under a unique name.

    Re-registering the *same* factory under the same name is a no-op,
    so the module-level registration below stays safe when worker
    processes (spawn start method) re-import this module; only a
    *conflicting* registration is an error.

    Raises
    ------
    ReproError
        If the name is already taken by a different factory.
    """
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not factory:
        raise ReproError(f"policy {name!r} is already registered")
    _REGISTRY[name] = factory


def unregister_policy(name: str) -> None:
    """Remove a registered policy (no-op when unknown); for plugins
    and tests that register throwaway policies."""
    _REGISTRY.pop(name, None)


def make_policy(name: str, **kwargs) -> FloorPolicy:
    """Instantiate a registered policy by name.

    Raises
    ------
    ReproError
        On an unknown policy name (the message lists what exists).
    """
    if name not in _REGISTRY:
        raise ReproError(
            f"unknown floor policy {name!r}; registered: {policy_names()}"
        )
    return _REGISTRY[name](**kwargs)


def policy_names() -> list[str]:
    """All registered policy names, sorted."""
    return sorted(_REGISTRY)


def resolve_mode(policy: FCMMode | str) -> FCMMode:
    """Map a mode-backed policy name (or an :class:`FCMMode`) to its
    mode; baseline policies have no FCM mode and raise.

    Raises
    ------
    ReproError
        If the name is not one of the four FCM mode policies.
    """
    if isinstance(policy, FCMMode):
        return policy
    try:
        return FCMMode(policy)
    except ValueError:
        raise ReproError(
            f"{policy!r} is not a session floor mode; expected one of "
            f"{[mode.value for mode in FCMMode]}"
        ) from None


for _mode in FCMMode:
    register_policy(
        _mode.value,
        lambda mode=_mode, **kwargs: ArbitratedPolicy(mode, **kwargs),
    )
register_policy("fifo", FIFOPolicy)
register_policy("free_for_all", FreeForAllPolicy)
