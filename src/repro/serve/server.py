"""The live session server: real DMPS floor control over asyncio TCP.

:class:`SessionServer` hosts one DMPS session for external clients.
Every verb a connection sends (``request``/``release``/``leave``) is
routed through the *existing* arbitration stack — an
:class:`~repro.api.policies.ArbitratedPolicy` over the paper's
:class:`~repro.core.server.FloorControlServer` — so a served session
makes exactly the decisions a simulated one would, logs the same
transcript events, and streams them back over the wire in the
transcript's own ``to_dict`` format (:mod:`repro.serve.protocol`).

Two dispatch modes:

* **live** — frames are handled on arrival and the session clock is
  paced against the wall clock by a
  :class:`~repro.serve.clockdrive.WallClockDriver` (``speed`` virtual
  seconds per wall second), with optional idle-timeout eviction.  This
  is ``repro serve``.
* **lockstep** — the server runs barrier *rounds*: it waits until
  every admitted connection has sent one frame (or hung up), advances
  the virtual clock one ``tick``, then processes the round in sorted
  member order — frames first, then disconnect evictions, then parked
  admissions — and broadcasts the next round's ``tick`` frame.  Round
  processing is a deterministic function of what each client sent, so
  two identically seeded soaks produce byte-identical transcripts and
  metrics regardless of TCP interleaving.  This is the soak-bench and
  CI mode.

Robustness properties (the reason this layer exists — see
docs/SERVING.md):

* **Backpressure** — per-connection :class:`~repro.serve.queue.
  SendQueue` with high/low watermarks; a stalled consumer's event
  stream coalesces into state snapshots and its buffer never exceeds
  the high watermark, while other clients' grants proceed untouched.
* **Bounded memory** — the hosted session's transcript is an EventBus
  ring (``ring_capacity``); the live metrics fold sees every event
  before eviction, exactly like :class:`repro.api.Session`.
* **Graceful eviction** — a vanished or timed-out member is removed
  through :meth:`FloorControlServer.leave`, so a mid-hold disconnect
  always hands the token off (logged as ``TOKEN_PASS``) and a later
  reconnect re-admits the member with their registration intact.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..api.policies import ArbitratedPolicy, resolve_mode
from ..clock.virtual import VirtualClock
from ..errors import ServeError, WireError
from ..events.bus import EventBus
from ..events.types import EventKind, FloorEvent
from ..metrics.fold import SESSION_FOLD_KINDS, MetricsFold
from ..trace import timing as _timing
from .clockdrive import WallClockDriver
from .protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    validate_hello,
    welcome_frame,
)
from .queue import SendQueue

__all__ = ["ServeConfig", "ServeResult", "ServeStats", "SessionServer"]

_MODES = ("live", "lockstep")


@dataclass(frozen=True)
class ServeConfig:
    """Everything a :class:`SessionServer` needs, validated up front."""

    host: str = "127.0.0.1"
    port: int = 0
    policy: str = "equal_control"
    chair: str = "operator"
    mode: str = "live"
    #: Live mode: virtual seconds per wall second.
    speed: float = 1.0
    #: Lockstep mode: virtual seconds each round advances the clock.
    tick: float = 1.0
    #: Transcript ring capacity (``None`` keeps every event — only for
    #: short-lived tests; a served session should always bound it).
    ring_capacity: int | None = 4096
    #: Lockstep: rounds begin once this many members are connected
    #: (``0`` starts on the first hello).
    await_members: int = 0
    #: Live: evict a connection silent for this many wall seconds
    #: (``None`` never evicts on idleness).
    idle_timeout: float | None = None
    #: Lockstep: wall-clock bound on a round barrier; stragglers that
    #: keep a round open longer are evicted (``None`` waits forever).
    round_timeout: float | None = 30.0
    #: Send-queue watermarks (frames) — the backpressure bounds.
    queue_high: int = 256
    queue_low: int = 64
    handshake_timeout: float = 10.0
    #: Wall seconds a closing connection gets to flush its tail.
    close_grace: float = 1.0
    metrics_mode: str = "exact"

    def validate(self) -> None:
        """Raise :class:`ServeError` on an inconsistent configuration."""
        if self.mode not in _MODES:
            raise ServeError(
                f"unknown serve mode {self.mode!r}; one of {list(_MODES)}"
            )
        # Baseline policies have no FCM mode (and no membership or
        # token hand-off semantics to serve); resolve_mode raises the
        # explanatory error for them.
        try:
            resolve_mode(self.policy)
        except Exception as error:
            raise ServeError(
                f"serve hosts the four FCM mode policies; {error}"
            ) from None
        for name in ("speed", "tick", "handshake_timeout", "close_grace",
                     "idle_timeout", "round_timeout"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ServeError(f"{name} must be finite, got {value!r}")
        if self.speed <= 0:
            raise ServeError(f"speed must be positive, got {self.speed!r}")
        if self.tick <= 0:
            raise ServeError(f"tick must be positive, got {self.tick!r}")
        if self.ring_capacity is not None and self.ring_capacity < 1:
            raise ServeError(
                f"ring_capacity must be positive or None, got {self.ring_capacity!r}"
            )
        if self.await_members < 0:
            raise ServeError(
                f"await_members must be >= 0, got {self.await_members!r}"
            )
        if not 0 <= self.queue_low < self.queue_high:
            raise ServeError(
                f"queue watermarks need 0 <= low < high, got "
                f"low={self.queue_low!r} high={self.queue_high!r}"
            )
        for name in ("idle_timeout", "round_timeout"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ServeError(f"{name} must be positive or None, got {value!r}")


class ServeStats:
    """Plain serving counters, split by determinism.

    The *deterministic* counters depend only on what clients sent (in
    lockstep mode): admissions, voluntary leaves, evictions, inbound
    frames, rounds.  The *timing* counters depend on flush scheduling
    (outbound frames, snapshots, coalesced events) and join a persisted
    document only under the explicit ``include_timing`` opt-in — the
    same convention the fleet artifacts use.
    """

    __slots__ = (
        "connections", "peak_connections", "leaves", "evicted_disconnect",
        "evicted_timeout", "frames_in", "rounds",
        "frames_out", "snapshots", "coalesced",
    )

    def __init__(self) -> None:
        self.connections = 0
        self.peak_connections = 0
        self.leaves = 0
        self.evicted_disconnect = 0
        self.evicted_timeout = 0
        self.frames_in = 0
        self.rounds = 0
        self.frames_out = 0
        self.snapshots = 0
        self.coalesced = 0

    def deterministic(self) -> dict[str, float]:
        return {
            "connections": float(self.connections),
            "peak_connections": float(self.peak_connections),
            "leaves": float(self.leaves),
            "evicted_disconnect": float(self.evicted_disconnect),
            "evicted_timeout": float(self.evicted_timeout),
            "frames_in": float(self.frames_in),
            "rounds": float(self.rounds),
        }

    def timing(self) -> dict[str, float]:
        return {
            "frames_out": float(self.frames_out),
            "snapshots": float(self.snapshots),
            "coalesced": float(self.coalesced),
        }


@dataclass
class ServeResult:
    """What a finished (or running) server can report."""

    config: ServeConfig
    metrics: dict[str, float]
    stats_deterministic: dict[str, float]
    stats_timing: dict[str, float]
    events: list[FloorEvent] = field(default_factory=list)
    evicted_events: int = 0

    def to_metrics(self, include_timing: bool = False) -> dict[str, float]:
        """One flat metric mapping (fold schema + serving counters)."""
        metrics = {**self.metrics, **self.stats_deterministic}
        if include_timing:
            metrics.update(self.stats_timing)
        return metrics


class _Connection:
    """Server-side connection state (one per TCP peer)."""

    __slots__ = (
        "member", "reader", "writer", "queue", "watch", "pending",
        "gone", "timed_out", "left", "admitted", "closed", "last_seen",
        "reader_task", "flusher_task", "resumed",
    )

    def __init__(self, reader, writer, member: str, watch: bool,
                 queue: SendQueue) -> None:
        self.member = member
        self.reader = reader
        self.writer = writer
        self.queue = queue
        self.watch = watch
        #: Inbound frames awaiting a lockstep round boundary.
        self.pending: deque[dict[str, Any]] = deque()
        self.gone = False
        self.timed_out = False
        self.left = False
        self.admitted = False
        self.closed = False
        self.last_seen = 0.0
        self.reader_task: asyncio.Task | None = None
        self.flusher_task: asyncio.Task | None = None
        self.resumed = False


class SessionServer:
    """One served DMPS session on one asyncio TCP listener."""

    def __init__(self, config: ServeConfig) -> None:
        config.validate()
        self.config = config
        self.clock = VirtualClock()
        self.policy = ArbitratedPolicy(
            resolve_mode(config.policy),
            chair=config.chair,
            log_capacity=config.ring_capacity,
            clock=self.clock,
        )
        self.stats = ServeStats()
        #: The hosted session's transcript ring (an indexed EventBus).
        self.bus: EventBus = self.policy.server.log
        #: Streaming metrics over every floor event (subscribed before
        #: any client joins; ring eviction can drop transcript entries,
        #: never metrics).
        self.metrics = MetricsFold(mode=config.metrics_mode)
        self.bus.subscribe(self.metrics.add, kinds=SESSION_FOLD_KINDS)
        self.bus.subscribe(self._route_event)
        self._connections: dict[str, _Connection] = {}
        self._parked: list[_Connection] = []
        self._waiting: set[_Connection] = set()
        self._round = 0
        self._rounds_started = False
        self._last_progress = 0.0
        self._driver = WallClockDriver(self.clock, speed=config.speed)
        self._server: asyncio.base_events.Server | None = None
        self._sweeper: asyncio.Task | None = None
        self._reapers: set[asyncio.Task] = set()
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        if self._server is None:
            raise ServeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def live(self) -> bool:
        return self.config.mode == "live"

    async def start(self) -> None:
        """Bind the listener (and, in live mode, start the clock)."""
        if self._server is not None:
            raise ServeError("server is already started")
        self._server = await asyncio.start_server(
            self._accept,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_FRAME_BYTES,
        )
        loop = asyncio.get_running_loop()
        self._last_progress = loop.time()
        if self.live:
            self._driver.start()
            if self.config.idle_timeout is not None:
                self._sweeper = loop.create_task(
                    self._run_idle_sweep(), name="serve-idle-sweep"
                )
        elif self.config.round_timeout is not None:
            self._sweeper = loop.create_task(
                self._run_round_watchdog(), name="serve-round-watchdog"
            )

    async def stop(self) -> None:
        """Close every connection and release the listener.

        Shutdown does not rewrite session membership — the transcript
        ends where the traffic ended; still-connected members get a
        ``bye`` and their sockets closed.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        conns = list(self._connections.values()) + list(self._parked)
        for conn in conns:
            self._close_conn(conn, bye_reason="shutdown")
        readers = [
            conn.reader_task
            for conn in conns
            if conn.reader_task is not None and not conn.reader_task.done()
        ]
        if readers:
            await asyncio.gather(*readers, return_exceptions=True)
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
            self._sweeper = None
        if self._driver.running:
            await self._driver.stop()
        if self._reapers:
            await asyncio.gather(*list(self._reapers), return_exceptions=True)

    def result(self) -> ServeResult:
        """Snapshot the session's metrics, counters and transcript."""
        return ServeResult(
            config=self.config,
            metrics=self.metrics.to_metrics(),
            stats_deterministic=self.stats.deterministic(),
            stats_timing=self.stats.timing(),
            events=list(self.bus),
            evicted_events=self.bus.evicted,
        )

    # ------------------------------------------------------------------
    # Introspection used by snapshots and tests
    # ------------------------------------------------------------------
    def members(self) -> list[str]:
        """Currently connected (admitted) members, sorted."""
        return sorted(self._connections)

    def connection(self, member: str) -> _Connection:
        if member not in self._connections:
            raise ServeError(f"no connected member {member!r}")
        return self._connections[member]

    @property
    def round_index(self) -> int:
        """Lockstep rounds processed so far."""
        return self._round

    # ------------------------------------------------------------------
    # Accepting and handshaking
    # ------------------------------------------------------------------
    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn: _Connection | None = None
        try:
            line = await asyncio.wait_for(
                reader.readline(), self.config.handshake_timeout
            )
            if not line:
                raise WireError("peer closed before the handshake")
            frame = _decode_line(line)
            member = validate_hello(frame)
            if member == self.config.chair:
                raise WireError(
                    f"member name {member!r} is reserved for the chair"
                )
            if member in self._connections:
                raise WireError(f"member {member!r} is already connected")
            if any(parked.member == member for parked in self._parked):
                raise WireError(f"member {member!r} is already connecting")
            conn = _Connection(
                reader, writer, member,
                watch=bool(frame.get("watch")),
                queue=SendQueue(self.config.queue_high, self.config.queue_low),
            )
        except (WireError, asyncio.TimeoutError) as error:
            detail = (
                "handshake timed out"
                if isinstance(error, asyncio.TimeoutError) else str(error)
            )
            try:
                writer.write(encode_frame(
                    {"type": "error", "code": "handshake", "detail": detail}
                ))
                writer.close()
            except Exception:
                pass
            return
        except (ConnectionError, asyncio.IncompleteReadError):
            writer.close()
            return

        conn.last_seen = asyncio.get_running_loop().time()
        conn.reader_task = asyncio.current_task()
        if self.live:
            self._admit(conn)
            self._start_flusher(conn)
        else:
            self._parked.append(conn)
            self._start_flusher(conn)
            self._maybe_round()
        await self._read_loop(conn)

    # ------------------------------------------------------------------
    # Admission and membership
    # ------------------------------------------------------------------
    def _admit(self, conn: _Connection) -> None:
        """Join the member into the hosted session and welcome them."""
        if self.live:
            self._driver.sync()
        server = self.policy.server
        try:
            server.registry.member(conn.member)
            conn.resumed = True
        except Exception:
            conn.resumed = False
        server.join(conn.member, host=conn.member)
        conn.admitted = True
        self._connections[conn.member] = conn
        self.stats.connections += 1
        self.stats.peak_connections = max(
            self.stats.peak_connections, len(self._connections)
        )
        conn.queue.push(welcome_frame(
            conn.member,
            policy=self.config.policy,
            group=server.session_group,
            resumed=conn.resumed,
            round_index=self._round if not self.live else None,
        ))

    def _leave(self, conn: _Connection) -> None:
        """A voluntary ``leave`` verb: hand off, log, close politely."""
        if not conn.left and conn.admitted:
            conn.left = True
            self.policy.server.leave(conn.member)
            self.stats.leaves += 1
        self._close_conn(conn, bye_reason="leave")

    def _evict(self, conn: _Connection, reason: str) -> None:
        """Forcible removal: disconnect detected or a timeout fired.

        Goes through :meth:`FloorControlServer.leave`, so an evicted
        floor holder's token is handed to the next queued member (a
        ``TOKEN_PASS`` transcript entry) and the member may rejoin
        later with their registration preserved.
        """
        with _timing.maybe_span("serve.evict"):
            if not conn.left and conn.admitted:
                conn.left = True
                self.policy.server.leave(conn.member)
                if reason == "timeout":
                    self.stats.evicted_timeout += 1
                else:
                    self.stats.evicted_disconnect += 1
            self._close_conn(conn, bye_reason=reason if not conn.gone else None)

    # ------------------------------------------------------------------
    # Reading and dispatch
    # ------------------------------------------------------------------
    async def _read_loop(self, conn: _Connection) -> None:
        error_detail: str | None = None
        try:
            while not conn.closed:
                line = await conn.reader.readline()
                if not line:
                    break
                try:
                    frame = _decode_line(line)
                except WireError as error:
                    error_detail = str(error)
                    break
                self.stats.frames_in += 1
                conn.last_seen = asyncio.get_running_loop().time()
                if self.live:
                    self._dispatch(conn, frame)
                else:
                    conn.pending.append(frame)
                    self._waiting.discard(conn)
                    self._touch_progress()
                    self._maybe_round()
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            # ValueError: a peer overran the readline limit (frame cap).
            error_detail = "frame exceeded the size cap"
        except asyncio.CancelledError:
            return
        finally:
            if not conn.closed:
                conn.gone = True
                if error_detail is not None:
                    conn.queue.push({
                        "type": "error", "code": "bad_frame",
                        "detail": error_detail,
                    })
                if self.live:
                    if conn.admitted:
                        self._evict(conn, "disconnect")
                    else:
                        self._close_conn(conn)
                else:
                    self._waiting.discard(conn)
                    if not conn.admitted:
                        self._close_conn(conn)
                    self._maybe_round()

    def _dispatch(self, conn: _Connection, frame: dict[str, Any]) -> None:
        """Apply one client verb to the hosted session."""
        with _timing.maybe_span("serve.dispatch"):
            if self.live:
                self._driver.sync()
            now = self.clock.now()
            verb = frame["type"]
            if verb == "request":
                target_member = frame.get("target_member")
                target_group = frame.get("target_group")
                self.policy.request(
                    conn.member,
                    now=now,
                    target_member=(
                        str(target_member) if target_member is not None else None
                    ),
                    target_group=(
                        str(target_group) if target_group is not None else None
                    ),
                )
            elif verb == "release":
                self.policy.release(conn.member, now=now)
            elif verb == "leave":
                self._leave(conn)
            elif verb == "ping":
                conn.queue.push({"type": "pong", "time": now})
            elif verb == "tick":
                pass  # the lockstep no-op heartbeat
            else:
                conn.queue.push({
                    "type": "error", "code": "unknown_verb",
                    "detail": f"unknown verb {verb!r}",
                })

    # ------------------------------------------------------------------
    # Lockstep rounds
    # ------------------------------------------------------------------
    def _touch_progress(self) -> None:
        self._last_progress = asyncio.get_running_loop().time()

    def _maybe_round(self) -> None:
        """Advance lockstep state as far as the barrier allows."""
        if self._stopping:
            return
        if not self._rounds_started:
            population = len(self._connections) + len(self._parked)
            if population < max(1, self.config.await_members):
                return
            self._rounds_started = True
        while (
            not self._waiting
            and (self._connections or self._parked)
            and not self._stopping
        ):
            self._process_round()

    def _process_round(self) -> None:
        """One deterministic barrier round (see module docs for order)."""
        self._round += 1
        self.clock.run_until(self._round * self.config.tick)
        # 1. Frames that arrived this round, in sorted member order.
        for member in sorted(self._connections):
            conn = self._connections.get(member)
            if conn is not None and conn.pending:
                frame = conn.pending.popleft()
                self._dispatch(conn, frame)
        # 2. Evict members whose connections vanished (sorted).
        for member in sorted(self._connections):
            conn = self._connections.get(member)
            if conn is not None and conn.gone and not conn.closed:
                conn.pending.clear()
                self._evict(conn, "timeout" if conn.timed_out else "disconnect")
        # 3. Admit parked handshakes (sorted) — including rejoins.
        parked, self._parked = self._parked, []
        for conn in sorted(parked, key=lambda c: c.member):
            if conn.gone:
                self._close_conn(conn)
            else:
                self._admit(conn)
        self.stats.rounds += 1
        # 4. Everyone still here owes a frame for the next round.
        self._waiting = set()
        next_round = self._round + 1
        for conn in self._connections.values():
            conn.queue.push_tick(next_round)
            if not conn.pending and not conn.gone:
                self._waiting.add(conn)
        self._touch_progress()

    async def _run_round_watchdog(self) -> None:
        timeout = self.config.round_timeout
        interval = max(0.05, min(1.0, timeout / 4))
        while True:
            await asyncio.sleep(interval)
            if not self._rounds_started or not self._waiting:
                continue
            loop = asyncio.get_running_loop()
            if loop.time() - self._last_progress <= timeout:
                continue
            # The barrier has been open too long: the silent members
            # are stragglers — mark them gone and let the round run.
            for conn in list(self._waiting):
                conn.gone = True
                conn.timed_out = True
            self._waiting.clear()
            self._maybe_round()

    # ------------------------------------------------------------------
    # Live-mode idle eviction
    # ------------------------------------------------------------------
    async def _run_idle_sweep(self) -> None:
        timeout = self.config.idle_timeout
        interval = max(0.05, min(1.0, timeout / 4))
        while True:
            await asyncio.sleep(interval)
            now = asyncio.get_running_loop().time()
            for conn in list(self._connections.values()):
                if now - conn.last_seen > timeout:
                    conn.timed_out = True
                    self._evict(conn, "timeout")

    # ------------------------------------------------------------------
    # Event fan-out
    # ------------------------------------------------------------------
    def _route_event(self, event: FloorEvent) -> None:
        """Push a transcript event to the connections it concerns.

        The member's own events always reach them; ``TOKEN_PASS``
        additionally reaches the recipient (they just acquired the
        floor); ``MODE_CHANGE`` is broadcast; ``watch`` connections
        receive the whole firehose.  Every push is coalescible — a
        slow consumer's backlog collapses into a snapshot.
        """
        frame = {"type": "event", "event": event.to_dict()}
        targets: dict[str, _Connection] = {}
        conn = self._connections.get(event.member)
        if conn is not None:
            targets[event.member] = conn
        if event.kind is EventKind.TOKEN_PASS:
            payload = event.payload()
            recipient = payload.to_member if payload is not None else None
            if recipient:
                conn = self._connections.get(recipient)
                if conn is not None:
                    targets[recipient] = conn
        if event.kind is EventKind.MODE_CHANGE:
            targets.update(self._connections)
        for other in self._connections.values():
            if other.watch:
                targets[other.member] = other
        for target in targets.values():
            target.queue.push(frame, coalescible=True)

    def _snapshot(self, conn: _Connection, dropped: int) -> dict[str, Any]:
        """Coalesced state for a consumer that fell behind."""
        return {
            "type": "snapshot",
            "time": self.clock.now(),
            "policy": self.config.policy,
            "speakers": sorted(self.policy.speakers()),
            "waiting": list(self.policy.waiting()),
            "members": self.members(),
            "round": self._round if not self.live else None,
            "dropped": dropped,
        }

    # ------------------------------------------------------------------
    # Flushing and teardown
    # ------------------------------------------------------------------
    def _start_flusher(self, conn: _Connection) -> None:
        conn.flusher_task = asyncio.get_running_loop().create_task(
            self._run_flusher(conn), name=f"serve-flush-{conn.member}"
        )

    async def _run_flusher(self, conn: _Connection) -> None:
        queue = conn.queue
        try:
            while True:
                await queue.wait()
                batch = queue.drain()
                frames = batch.frames
                if batch.snapshot:
                    frames.append(self._snapshot(conn, batch.dropped))
                    self.stats.snapshots += 1
                    self.stats.coalesced += batch.dropped
                if batch.tick is not None:
                    frames.append({"type": "tick", "round": batch.tick})
                if frames:
                    data = b"".join(encode_frame(frame) for frame in frames)
                    with _timing.maybe_span("serve.flush"):
                        conn.writer.write(data)
                        await conn.writer.drain()
                    self.stats.frames_out += len(frames)
                if queue.closed and not queue:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                conn.writer.close()
            except Exception:
                pass

    def _close_conn(self, conn: _Connection, bye_reason: str | None = None) -> None:
        """Tear one connection down (idempotent, never blocks)."""
        if conn.closed:
            return
        conn.closed = True
        if self._connections.get(conn.member) is conn:
            del self._connections[conn.member]
        if conn in self._parked:
            self._parked.remove(conn)
        self._waiting.discard(conn)
        if bye_reason is not None and not conn.gone:
            conn.queue.push({"type": "bye", "reason": bye_reason})
        conn.queue.close()
        if (
            conn.reader_task is not None
            and conn.reader_task is not asyncio.current_task()
        ):
            conn.reader_task.cancel()
        task = asyncio.get_running_loop().create_task(self._reap(conn))
        self._reapers.add(task)
        task.add_done_callback(self._reapers.discard)

    async def _reap(self, conn: _Connection) -> None:
        """Give the flusher a grace window, then close the transport."""
        if conn.flusher_task is not None and not conn.flusher_task.done():
            try:
                await asyncio.wait_for(
                    asyncio.shield(conn.flusher_task), self.config.close_grace
                )
            except Exception:
                conn.flusher_task.cancel()
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except Exception:
            pass


def _decode_line(line: bytes) -> dict[str, Any]:
    """Decode one wire line, enforcing the frame-size cap."""
    if len(line) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return decode_frame(line)
