"""Array-compiled floor policies: the simulation core as flat arrays.

:class:`CompiledEngine` re-implements the four FCM-mode policies of
:class:`~repro.api.policies.ArbitratedPolicy` — and
:class:`CompiledFIFO` / :class:`CompiledFreeForAll` the two baselines —
over interned member ids, integer token queues and the columnar event
log of :mod:`repro.engine.log`, instead of the reference engines'
object graph (registry, resource vectors, request/grant dataclasses,
frozen events).  The compiled classes satisfy the same
:class:`~repro.api.policies.FloorPolicy` protocol and the same driving
surface (``request_batch``, ``stats``, ``evicted``, ``events()``), so
every consumer of the reference policies — fleet sessions, sweep
cells, benchmarks — can swap engines with one knob.

Correctness is pinned by construction *and* by the replay oracle:

* every decision (`request`/`request_batch`/`release` return values,
  ``speakers()``/``waiting()``) matches the reference policy for any
  operation sequence;
* the materialized transcript (:meth:`events`) is byte-identical to
  the reference transcript under ``repro.events.transcript``
  canonical JSON, including ring-mode eviction counts;
* the decision counters (``stats``) match the reference policy's
  :class:`~repro.core.arbitrator.ArbitrationStats` field for field,
  so fleet metric folds are byte-identical across engines.

What the compiled engine skips — and why it is safe here: membership
guards collapse to a byte-array bit per interned member (the reference
policies auto-join every requester, so Guard 1 can never fail);
resource classification collapses to nothing (the reference policies'
private server is provisioned with generous resources, so Guard 2 is
always ``NORMAL`` with zero demand); and events become six integer
column writes (materialized lazily).  Anything outside those
conventions — custom registered policies, resource pressure, explicit
targets — stays on the reference engine.
"""

from __future__ import annotations

from array import array

from ..core.arbitrator import ArbitrationStats
from ..core.floor import check_floor_time
from ..core.modes import FCMMode
from ..errors import ReproError
from ..trace import timing as _timing
from .log import (
    K_GRANT,
    K_INVITE,
    K_INVITE_RESPONSE,
    K_JOIN,
    K_MODE_CHANGE,
    K_QUEUE,
    K_REQUEST,
    K_TOKEN_PASS,
    ColumnarLog,
)

__all__ = [
    "CompiledEngine",
    "CompiledFIFO",
    "CompiledFreeForAll",
    "compile_policy",
    "compiled_policy_names",
]

_SESSION = 0  # group id of the main session group
_SUBGROUP = 1  # group id of the shared discussion subgroup


class CompiledEngine:
    """One FCM mode compiled to flat arrays (reference: the mode half of
    :class:`~repro.api.policies.ArbitratedPolicy`).

    The engine keeps the reference policy's standalone conventions —
    requesters are auto-joined on first use; *group discussion* invites
    every requester into one shared subgroup (``"session/sub0"``)
    chaired by the session chair; *direct contact* pairs the requester
    with the chair (a chair request without an explicit peer is
    refused without any event, exactly like the reference).  Event
    times are all ``0.0`` because the reference policy's private clock
    never advances.

    Parameters
    ----------
    mode:
        The FCM mode (or its wire value).
    chair:
        Session chair name (interned as member id 0, never JOIN-logged).
    log_capacity:
        Transcript ring bound; ``None`` keeps everything.
    """

    __slots__ = (
        "mode", "chair", "log", "stats",
        "_ids", "_names", "_joined", "_in_queue", "_in_sub",
        "_holder", "_queue", "_has_sub", "_pairs",
    )

    def __init__(
        self,
        mode: FCMMode | str,
        chair: str = "teacher",
        log_capacity: int | None = None,
    ) -> None:
        self.mode = mode if isinstance(mode, FCMMode) else FCMMode(mode)
        self.chair = chair
        self._names: list[str] = [chair]
        self._ids: dict[str, int] = {chair: 0}
        self._joined = bytearray((1,))
        self._in_queue = bytearray((0,))
        self._in_sub = bytearray((0,))
        self._holder = -1
        self._queue: list[int] = []
        self._has_sub = False
        self._pairs: list[tuple[int, int]] = []
        self.stats = ArbitrationStats()
        self.log = ColumnarLog(
            self._names,
            ["session", "session/sub0"],
            self.mode.value,
            capacity=log_capacity,
        )
        # The reference policy's constructor re-asserts its mode on the
        # session group, so the first transcript event is always a
        # MODE_CHANGE from the server's initial free_access.
        self.log.append(0.0, K_MODE_CHANGE, 0, _SESSION)

    @property
    def name(self) -> str:
        """Registry name — the mode's wire value."""
        return self.mode.value

    @property
    def evicted(self) -> int:
        """Events dropped by the transcript ring (0 when unbounded)."""
        return self.log.evicted

    # ------------------------------------------------------------------
    # FloorPolicy protocol
    # ------------------------------------------------------------------
    def request(self, member: str, now: float = 0.0) -> bool:
        """Arbitrate one floor request; ``True`` when granted."""
        mode = self.mode
        mid = self._ensure(member)
        if mode is FCMMode.FREE_ACCESS:
            self.log.append(0.0, K_REQUEST, mid)
            self.log.append(0.0, K_GRANT, mid)
            self.stats.granted += 1
            return True
        if mode is FCMMode.EQUAL_CONTROL:
            self.log.append(0.0, K_REQUEST, mid)
            return self._decide_equal_control(mid, position=True)
        if mode is FCMMode.GROUP_DISCUSSION:
            self._admit_to_subgroup(mid)
            self.log.append(0.0, K_REQUEST, mid)
            self.log.append(0.0, K_GRANT, mid)
            self.stats.granted += 1
            return True
        # Direct contact: the peer defaults to the chair; the chair's
        # own request is refused without any event (reference parity).
        if mid == 0:
            return False
        self.log.append(0.0, K_REQUEST, mid)
        self.log.append(0.0, K_GRANT, mid)
        self.stats.granted += 1
        self._pairs.append((mid, 0))
        return True

    def request_batch(self, submissions: list[tuple[str, float]]) -> list[bool]:
        """Arbitrate one tick's requests together (the fleet hot path).

        Session modes use the batch transcript layout — every REQUEST
        logged before any outcome, queue positions omitted — exactly
        like :meth:`~repro.core.server.FloorControlServer.request_floor_batch`;
        the subgroup modes fall back to the per-call path, mirroring
        the reference policy.
        """
        with _timing.maybe_span("engine.request_batch"):
            return self._request_batch(submissions)

    def _request_batch(self, submissions: list[tuple[str, float]]) -> list[bool]:
        if self.mode in (FCMMode.GROUP_DISCUSSION, FCMMode.DIRECT_CONTACT):
            return [self.request(member, now) for member, now in submissions]
        append = self.log.append
        mids = [self._ensure(member) for member, _ in submissions]
        for mid in mids:
            append(0.0, K_REQUEST, mid)
        if self.mode is FCMMode.FREE_ACCESS:
            for mid in mids:
                append(0.0, K_GRANT, mid)
            self.stats.granted += len(mids)
            return [True] * len(mids)
        return [self._decide_equal_control(mid, position=False) for mid in mids]

    def release(self, member: str, now: float = 0.0) -> str | None:
        """Pass the token (equal control) or close a contact pair."""
        if self.mode is FCMMode.EQUAL_CONTROL:
            mid = self._ids.get(member, -1)
            if mid < 0 or self._holder != mid:
                return None  # reference swallows the stale-release error
            if self._queue:
                successor = self._queue.pop(0)
                self._in_queue[successor] = 0
                self._holder = successor
                self.log.append(0.0, K_TOKEN_PASS, mid, _SESSION, successor)
                return self._names[successor]
            self._holder = -1
            self.log.append(0.0, K_TOKEN_PASS, mid, _SESSION, -1)
            return None
        if self.mode is FCMMode.DIRECT_CONTACT:
            mid = self._ids.get(member, -1)
            if mid >= 0:
                self._pairs = [
                    pair for pair in self._pairs if mid not in pair
                ]
        return None

    def speakers(self) -> set[str]:
        """Members the mode currently allows to deliver."""
        names = self._names
        if self.mode is FCMMode.EQUAL_CONTROL:
            return {names[self._holder]} if self._holder >= 0 else set()
        if self.mode is FCMMode.GROUP_DISCUSSION:
            if not self._has_sub:
                return set()
            return {names[mid] for mid, flag in enumerate(self._in_sub) if flag}
        if self.mode is FCMMode.DIRECT_CONTACT:
            return {names[mid] for pair in self._pairs for mid in pair}
        return {names[mid] for mid, flag in enumerate(self._joined) if flag}

    def waiting(self) -> list[str]:
        """The equal-control token queue (empty for the other modes)."""
        return [self._names[mid] for mid in self._queue]

    def events(self):
        """The retained transcript as reference-identical events."""
        return self.log.events()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure(self, member: str) -> int:
        mid = self._ids.get(member)
        if mid is None:
            mid = len(self._names)
            self._ids[member] = mid
            self._names.append(member)
            self._joined.append(1)
            self._in_queue.append(0)
            self._in_sub.append(0)
            self.log.append(0.0, K_JOIN, mid)
        return mid

    def _decide_equal_control(self, mid: int, position: bool) -> bool:
        holder = self._holder
        if holder == mid:
            self.log.append(0.0, K_GRANT, mid)
            self.stats.granted += 1
            return True
        if holder < 0:
            self._holder = mid
            self.log.append(0.0, K_GRANT, mid)
            self.stats.granted += 1
            return True
        if not self._in_queue[mid]:
            self._queue.append(mid)
            self._in_queue[mid] = 1
        rank = self._queue.index(mid) + 1 if position else -1
        self.log.append(0.0, K_QUEUE, mid, _SESSION, holder, rank)
        self.stats.queued += 1
        return False

    def _admit_to_subgroup(self, mid: int) -> None:
        if not self._has_sub:
            self._has_sub = True
            self._in_sub[0] = 1  # subgroup creation itself is unlogged
        if not self._in_sub[mid]:
            self.log.append(0.0, K_INVITE, 0, _SUBGROUP, mid)
            self.log.append(0.0, K_INVITE_RESPONSE, mid, _SUBGROUP)
            self._in_sub[mid] = 1


class CompiledFIFO:
    """The FIFO baseline compiled to flat arrays (reference:
    :class:`~repro.api.policies.FIFOPolicy`).

    Decision semantics, counters (:attr:`grants`, :attr:`waits`,
    :attr:`stats`) and the transcript convention — JOIN on first
    request, REQUEST plus GRANT/QUEUE per ask (queue events carry the
    holder reason and the 1-based position), TOKEN_PASS on a successful
    release, all at workload timestamps — match the reference policy
    exactly, down to refusing a non-finite ``now``.
    """

    name = "fifo"

    __slots__ = ("log", "grants", "waits", "stats", "_ids", "_names", "_seen",
                 "_holder", "_queue", "_in_queue")

    def __init__(self, log_capacity: int | None = None) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._seen = bytearray()
        self._holder = -1
        self._queue: list[int] = []
        self._in_queue = bytearray()
        self.grants = 0
        self.waits = 0
        self.stats = ArbitrationStats()
        self.log = ColumnarLog(
            self._names, ["session"], "fifo", capacity=log_capacity
        )

    def _intern(self, member: str) -> int:
        mid = self._ids.get(member)
        if mid is None:
            mid = len(self._names)
            self._ids[member] = mid
            self._names.append(member)
            self._seen.append(0)
            self._in_queue.append(0)
        return mid

    def request(self, member: str, now: float = 0.0) -> bool:
        """Single global queue: first asker speaks, the rest wait."""
        check_floor_time(now)
        mid = self._intern(member)
        append = self.log.append
        if not self._seen[mid]:
            self._seen[mid] = 1
            append(now, K_JOIN, mid)
        append(now, K_REQUEST, mid)
        holder = self._holder
        if holder == mid:
            self.stats.granted += 1
            append(now, K_GRANT, mid)
            return True
        if holder < 0:
            self._holder = mid
            self.grants += 1
            self.stats.granted += 1
            append(now, K_GRANT, mid)
            return True
        if not self._in_queue[mid]:
            self._queue.append(mid)
            self._in_queue[mid] = 1
            self.waits += 1
        self.stats.queued += 1
        append(now, K_QUEUE, mid, _SESSION, holder, self._queue.index(mid) + 1)
        return False

    def request_batch(self, submissions: list[tuple[str, float]]) -> list[bool]:
        """One tick's ``(member, now)`` requests, decided per call."""
        return [self.request(member, now) for member, now in submissions]

    def release(self, member: str, now: float = 0.0) -> str | None:
        """Head of the queue takes over; stale releases are ignored."""
        check_floor_time(now)
        mid = self._ids.get(member, -1)
        if mid < 0 or self._holder != mid:
            return None
        if self._queue:
            successor = self._queue.pop(0)
            self._in_queue[successor] = 0
            self._holder = successor
            self.grants += 1
            self.log.append(now, K_TOKEN_PASS, mid, _SESSION, successor)
            return self._names[successor]
        self._holder = -1
        self.log.append(now, K_TOKEN_PASS, mid, _SESSION, -1)
        return None

    def speakers(self) -> set[str]:
        """The single current holder (or nobody)."""
        return {self._names[self._holder]} if self._holder >= 0 else set()

    def waiting(self) -> list[str]:
        """The FIFO wait queue."""
        return [self._names[mid] for mid in self._queue]

    def events(self):
        """The retained transcript as reference-identical events."""
        return self.log.events()

    @property
    def evicted(self) -> int:
        """Events dropped by the transcript ring (0 when unbounded)."""
        return self.log.evicted


class CompiledFreeForAll:
    """The no-floor-control baseline compiled to flat arrays
    (reference: :class:`~repro.api.policies.FreeForAllPolicy`).

    Every request at a finite time is granted; collisions — posts from
    distinct authors closer than ``collision_window`` — are scored with
    the reference scan over the recent post tail, on parallel
    time/author arrays instead of a list of tuples.
    """

    name = "free_for_all"

    __slots__ = ("log", "collision_window", "collisions", "stats",
                 "_ids", "_names", "_seen", "_post_times", "_post_authors")

    def __init__(
        self,
        collision_window: float = 0.25,
        log_capacity: int | None = None,
    ) -> None:
        self.collision_window = collision_window
        self.collisions = 0
        self.stats = ArbitrationStats()
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._seen = bytearray()
        self._post_times = array("d")
        self._post_authors = array("q")
        self.log = ColumnarLog(
            self._names, ["session"], "free_for_all", capacity=log_capacity
        )

    def request(self, member: str, now: float = 0.0) -> bool:
        """Always granted — that is the point of this baseline."""
        check_floor_time(now)
        mid = self._ids.get(member)
        if mid is None:
            mid = len(self._names)
            self._ids[member] = mid
            self._names.append(member)
            self._seen.append(1)
            self.log.append(now, K_JOIN, mid)
        self.log.append(now, K_REQUEST, mid)
        times = self._post_times
        authors = self._post_authors
        window = self.collision_window
        for index in range(len(times) - 1, -1, -1):
            if now - times[index] > window:
                break
            if authors[index] != mid:
                self.collisions += 1
                break
        times.append(now)
        authors.append(mid)
        self.stats.granted += 1
        self.log.append(now, K_GRANT, mid)
        return True

    def request_batch(self, submissions: list[tuple[str, float]]) -> list[bool]:
        """One tick's ``(member, now)`` requests, decided per call."""
        return [self.request(member, now) for member, now in submissions]

    def release(self, member: str, now: float = 0.0) -> str | None:
        """No floor to release."""
        check_floor_time(now)
        return None

    def speakers(self) -> set[str]:
        """Everyone who ever posted (no floor control)."""
        return {self._names[mid] for mid, flag in enumerate(self._seen) if flag}

    def waiting(self) -> list[str]:
        """Nobody ever waits."""
        return []

    def posts(self) -> int:
        """How many uncontrolled posts were recorded."""
        return len(self._post_times)

    def collision_rate(self) -> float:
        """Fraction of posts that collided with another author's."""
        if not self._post_times:
            return 0.0
        return self.collisions / len(self._post_times)

    def events(self):
        """The retained transcript as reference-identical events."""
        return self.log.events()

    @property
    def evicted(self) -> int:
        """Events dropped by the transcript ring (0 when unbounded)."""
        return self.log.evicted


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
_COMPILED_BASELINES = {
    "fifo": CompiledFIFO,
    "free_for_all": CompiledFreeForAll,
}


def compiled_policy_names() -> list[str]:
    """The six built-in policies: what the compiled engine covers, and
    all that fleets and policy cells run (the reference registry stays
    open for direct :func:`~repro.api.policies.make_policy` use)."""
    return sorted([mode.value for mode in FCMMode] + list(_COMPILED_BASELINES))


def compile_policy(name: str, **kwargs):
    """Instantiate the compiled counterpart of a reference policy.

    Accepts the four FCM mode values plus ``"fifo"`` and
    ``"free_for_all"``; keyword arguments pass through to the class
    (``log_capacity`` everywhere, ``chair`` for the modes,
    ``collision_window`` for free-for-all).

    Raises
    ------
    ReproError
        For a policy the compiled engine does not cover — custom
        registered policies are for direct ``make_policy`` use only.
    """
    factory = _COMPILED_BASELINES.get(name)
    if factory is not None:
        return factory(**kwargs)
    try:
        mode = FCMMode(name)
    except ValueError:
        raise ReproError(
            f"no compiled engine for policy {name!r}; "
            f"compiled: {compiled_policy_names()}"
        ) from None
    return CompiledEngine(mode, **kwargs)
