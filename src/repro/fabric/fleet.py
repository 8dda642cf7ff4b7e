"""The fleet: N sessions, one logical clock, K shards, one fold.

The logical clock is the lockstep tick schedule
:meth:`~repro.fabric.config.FleetConfig.ticks`; the lockstep guarantee
is per session: every session consumes the same tick windows in every
execution.  Serial execution (:class:`Fleet`) hands each shard all
deadlines at once, and the shard takes its sessions one at a time
through them (or, with ``on_tick``, advances every shard one deadline
at a time).  Sharded execution (:func:`run_fleet` with
``workers > 1``) sends whole shards to worker processes; each worker
takes the *same* deadlines (:func:`~repro.fabric.shard.run_shard_traced`)
and returns a single :class:`~repro.metrics.aggregate.FleetMetrics`
fold.

Because every fold component is an exact commutative integer merge,
the aggregate is bit-identical whatever the worker count or completion
order, which is what lets ``BENCH_fleet`` JSON reproduce byte-for-byte
— the same guarantee the sweep engine gives per cell, extended to
10k+ concurrent sessions.

The ``"fleet"`` cell runner (:func:`run_fleet_cell`) exposes all of
this to the sweep grid, so experiments can sweep fleet size or shard
count like any other axis.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import ReproError
from ..experiments.spec import CAPTURE_PARAMS, Cell
from ..metrics import FleetMetrics
from ..trace import timing as _timing
from .config import FleetConfig
from .shard import Shard, run_shard_traced

__all__ = ["Fleet", "FleetResult", "run_fleet", "run_fleet_cell"]

#: Parameters the ``fleet`` cell runner understands, with defaults.
_FLEET_DEFAULTS: dict[str, Any] = {
    "sessions": 100,
    "shards": 1,
    "members": 4,
    "policy": "equal_control",
    "scenario": "seminar",
    "duration": 30.0,
    "tick": 1.0,
    "ring_capacity": 256,
    "mean_hold": 4.0,
    "request_rate": 0.5,
    "engine": "batch",
}


@dataclass(frozen=True)
class FleetResult:
    """A completed fleet run: the deterministic fold plus wall timing.

    The *fold* (``metrics``) depends only on the config and root seed;
    the *timing* fields depend on the machine and are deliberately kept
    out of :meth:`to_metrics` so sweep cells and byte-identity tests
    never see wall-clock noise.

    ``spans`` (causal-plane span dicts, ``run_fleet(..., trace=True)``)
    sits on the deterministic side of that wall — byte-identical serial
    vs. sharded once canonically serialized; ``profile`` (timing-plane
    aggregates, ``profile=True``) sits with ``wall_seconds`` on the
    machine-dependent side.
    """

    config: FleetConfig
    metrics: FleetMetrics
    wall_seconds: float
    spans: tuple = ()
    profile: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    @property
    def sessions_per_sec(self) -> float:
        """Concurrent sessions fully simulated per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.metrics.sessions / self.wall_seconds

    @property
    def events_per_sec(self) -> float:
        """Workload events consumed per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.metrics.events / self.wall_seconds

    def to_metrics(self) -> dict[str, float]:
        """The deterministic metrics dict (no timing; see class docs)."""
        return self.metrics.to_metrics()

    def render(self) -> str:
        """Human-readable multi-line fleet report."""
        m = self.metrics
        lines = [
            f"fleet report: {m.sessions} sessions × "
            f"{self.config.scenario}/{self.config.policy}, "
            f"{self.config.duration:.1f}s simulated on "
            f"{self.config.shards} shard(s) in {self.wall_seconds:.2f}s wall",
            f"  throughput: {self.sessions_per_sec:,.0f} sessions/s, "
            f"{self.events_per_sec:,.0f} events/s",
            f"  floor:      {m.requests} requests -> {m.granted} granted, "
            f"{m.queued} queued, {m.denied} denied, {m.aborted} aborted; "
            f"{m.served} served, {m.posts} posts",
            f"  latency:    grant p50 {m.grant_p50 * 1000:.1f} ms, "
            f"p95 {m.grant_p95 * 1000:.1f} ms, "
            f"mean {m.grant_mean * 1000:.1f} ms",
            f"  fairness:   Jain {m.jain_fairness():.3f} across sessions",
            f"  transcript: {m.evicted} events evicted (ring mode)",
        ]
        if m.listener_errors:
            lines.append(
                f"  events:     {m.listener_errors} listener errors "
                f"(dispatch isolated)"
            )
        if self.spans:
            lines.append(
                f"  trace:      {len(self.spans)} causal spans collected"
            )
        if self.profile:
            lines.append(
                f"  profile:    {len(self.profile)} layers timed "
                f"(wall clock, see `repro trace top`)"
            )
        return "\n".join(lines)


class Fleet:
    """Serial engine: every shard advanced through the deadlines of
    :meth:`~repro.fabric.config.FleetConfig.ticks`, one session at a
    time.

    ``on_tick(deadline, events_so_far, fleet)`` fires after each tick;
    with it, every shard advances one deadline at a time so the
    callback sees the whole fleet at that tick.  Callers wanting
    streaming metrics call :meth:`snapshot` from there (it folds shard
    summaries on demand — nothing is buffered between ticks).  Either
    order gives every session the same tick windows, so the same fold.
    """

    def __init__(
        self,
        config: FleetConfig,
        on_tick: Callable[[float, int, "Fleet"], None] | None = None,
        trace: bool = False,
    ) -> None:
        config.validate()
        self.config = config
        self.shards = [Shard(index, config) for index in range(config.shards)]
        self._on_tick = on_tick
        self._trace = trace
        self._events = 0

    def snapshot(self) -> FleetMetrics:
        """Fold every shard's current state into one aggregate."""
        total = FleetMetrics()
        with _timing.maybe_span("fleet.merge"):
            for shard in self.shards:
                total.merge(shard.summary())
        return total

    def run(self) -> FleetResult:
        """Drive the whole fleet to ``config.duration``; fold; close."""
        started = time.perf_counter()
        spans: list[dict[str, Any]] = []
        ticks = tuple(self.config.ticks())
        # One window of every deadline (session-major), or one window
        # per deadline when ``on_tick`` reads the fleet between ticks.
        windows = [ticks] if self._on_tick is None else [(d,) for d in ticks]
        try:
            for window in windows:
                self._advance(window)
            metrics = self.snapshot()
            if self._trace:
                # Collected before teardown: span ids derive from each
                # session's seed, so this is the same payload a traced
                # worker shard returns.
                for shard in self.shards:
                    spans.extend(shard.span_dicts())
        finally:
            self.close()
        return FleetResult(
            config=self.config,
            metrics=metrics,
            wall_seconds=time.perf_counter() - started,
            spans=tuple(spans),
        )

    def close(self) -> None:
        """Tear down every shard; idempotent."""
        for shard in self.shards:
            shard.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self, deadlines: tuple[float, ...]) -> None:
        for shard in self.shards:
            self._events += shard.advance(*deadlines)
        if self._on_tick is not None:
            self._on_tick(deadlines[-1], self._events, self)


def run_fleet(
    config: FleetConfig,
    workers: int = 1,
    on_tick: Callable[[float, int, Fleet], None] | None = None,
    *,
    trace: bool = False,
    profile: bool = False,
    progress: bool = False,
) -> FleetResult:
    """Run a fleet serially or across worker processes.

    ``workers <= 1`` (or a single shard) runs the serial engine.
    Otherwise each shard runs in a worker process and the per-shard
    folds merge incrementally as they complete — the merge is exact and
    commutative, so the result is byte-identical to the serial run.  ``on_tick`` only fires on the serial path (worker
    shards are shared-nothing by design).

    The three observability knobs are execution parameters — they
    never reseed or change the fold:

    * ``trace`` collects the causal-plane spans of every session into
      :attr:`FleetResult.spans` (byte-identical serial vs. sharded
      once canonically serialized);
    * ``profile`` runs the timing plane (wall-clock aggregates per
      layer, merged across shards) into :attr:`FleetResult.profile`;
    * ``progress`` streams a heartbeat to stderr — per tick on the
      serial path, per shard completion on the sharded path.
    """
    config.validate()
    if workers <= 1 or config.shards == 1:
        tick_cb = _progress_tick(config, on_tick) if progress else on_tick
        fleet = Fleet(config, on_tick=tick_cb, trace=trace)
        if not profile:
            return fleet.run()
        profiler = _timing.Profiler()
        with _timing.activate(profiler):
            result = fleet.run()
        return FleetResult(
            config=result.config,
            metrics=result.metrics,
            wall_seconds=result.wall_seconds,
            spans=result.spans,
            profile=profiler.aggregates(),
        )
    started = time.perf_counter()
    total = FleetMetrics()
    spans: list[dict[str, Any]] = []
    merged_profile = _timing.Profiler()
    with ProcessPoolExecutor(
        max_workers=min(workers, config.shards), mp_context=_pool_context()
    ) as pool:
        futures = [
            pool.submit(run_shard_traced, index, config, trace, profile)
            for index in range(config.shards)
        ]
        done = 0
        for future in as_completed(futures):
            fold, shard_spans, shard_profile = future.result()
            spans.extend(shard_spans)
            merged_profile.merge(shard_profile)
            total.merge(fold)
            done += 1
            if progress:
                elapsed = time.perf_counter() - started
                rate = total.events / elapsed if elapsed > 0 else 0.0
                print(
                    f"fleet: shard {done}/{config.shards} done, "
                    f"{total.sessions} sessions folded, "
                    f"{total.events} events, {rate:,.0f} events/s",
                    file=sys.stderr,
                )
    return FleetResult(
        config=config,
        metrics=total,
        wall_seconds=time.perf_counter() - started,
        spans=tuple(spans),
        profile=merged_profile.aggregates() if profile else {},
    )


def _progress_tick(
    config: FleetConfig,
    inner: Callable[[float, int, Fleet], None] | None,
) -> Callable[[float, int, Fleet], None]:
    """Wrap ``on_tick`` with a stderr heartbeat (serial path only)."""
    started = time.perf_counter()
    ticks_done = [0]

    def heartbeat(deadline: float, events: int, fleet: Fleet) -> None:
        ticks_done[0] += 1
        elapsed = time.perf_counter() - started
        rate = events / elapsed if elapsed > 0 else 0.0
        print(
            f"fleet: tick {ticks_done[0]} t={deadline:.1f}/"
            f"{config.duration:.1f}s, {config.sessions} sessions live, "
            f"{events} events, {rate:,.0f} events/s",
            file=sys.stderr,
        )
        if inner is not None:
            inner(deadline, events, fleet)

    return heartbeat


def _pool_context():
    """Fork-preferred multiprocessing context (matches the sweep pool)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


# ----------------------------------------------------------------------
# Sweep integration: the "fleet" cell runner
# ----------------------------------------------------------------------
def run_fleet_cell(cell: Cell) -> Mapping[str, float]:
    """Execute one sweep cell as a whole fleet.

    Cell parameters mirror :class:`FleetConfig` fields (unknown
    parameters are rejected); the cell's derived seed becomes the
    fleet's root seed, so per-session seeds are anchored in the sweep's
    root seed exactly like every other runner.  The cell runs serially
    — the sweep engine owns cross-cell parallelism — and records only
    the deterministic fold, never wall-clock rates.
    """
    unknown = sorted(set(cell.params) - set(_FLEET_DEFAULTS) - CAPTURE_PARAMS)
    if unknown:
        raise ReproError(
            f"cell {cell.cell_id!r}: unknown fleet parameters {unknown!r}; "
            f"known: {sorted(_FLEET_DEFAULTS)}"
        )
    values = {**_FLEET_DEFAULTS, **{
        name: value for name, value in cell.params.items()
        if name not in CAPTURE_PARAMS
    }}
    config = FleetConfig(
        sessions=int(values["sessions"]),
        shards=int(values["shards"]),
        members=int(values["members"]),
        policy=str(values["policy"]),
        scenario=str(values["scenario"]),
        duration=float(values["duration"]),
        tick=float(values["tick"]),
        ring_capacity=(
            None if values["ring_capacity"] is None
            else int(values["ring_capacity"])
        ),
        mean_hold=float(values["mean_hold"]),
        request_rate=float(values["request_rate"]),
        engine=str(values["engine"]),
        seed=cell.seed,
    )
    return run_fleet(config).to_metrics()
