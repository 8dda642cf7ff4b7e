"""Shared-nothing shards: the unit of fleet parallelism.

A shard owns every session whose index is congruent to the shard index
modulo the shard count (``range(shard, sessions, shards)``), so the
assignment is stable under fleet growth — adding sessions never moves
an existing session between shards.  Shards share *nothing*: each
session carries its own policy state, workload stream and ring-bounded
transcript, which is why worker processes need no coordination beyond
the tick schedule and one summary message at the end, and why a shard
may take its sessions one at a time through every deadline.

:func:`run_shard_traced` is the module-level worker entry point
(:class:`~concurrent.futures.ProcessPoolExecutor` sends it by pickled
reference); it takes the same tick deadlines the serial
:class:`~repro.fabric.fleet.Fleet` drives, so every session consumes
identical event windows in both executions — the root of the
serial/sharded byte-identity guarantee.  :func:`run_shard` is its
fold-only form.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any

from ..metrics import FleetMetrics
from ..trace import timing as _timing
from ..trace.causal import CausalTracer
from .config import FleetConfig
from .session import make_session

__all__ = ["Shard", "run_shard", "run_shard_traced"]


class Shard:
    """One shard of a fleet: the sessions it owns, each advanced
    through the same tick deadlines."""

    def __init__(self, shard_index: int, config: FleetConfig) -> None:
        self.shard_index = shard_index
        self.config = config
        self.sessions = [
            make_session(index, config)
            for index in config.shard_sessions(shard_index)
        ]
        self._closed = False

    def advance(self, *deadlines: float) -> int:
        """Advance every owned session through ``deadlines``, in order;
        returns events run.

        Session-major: one session takes every deadline before the
        next session starts, so its policy, fold and stream state stay
        warm in cache.  Sessions share nothing, so each still receives
        the same ``advance(deadline)`` calls in the same order as when
        the shard is advanced one deadline at a time.
        """
        events = 0
        for session in self.sessions:
            advance = session.advance
            for deadline in deadlines:
                events += advance(deadline)
        return events

    def summary(self) -> FleetMetrics:
        """Fold the owned sessions into one mergeable aggregate.

        Sessions fold in ascending session-index order; since every
        :class:`FleetMetrics` component is an exact commutative fold,
        the order is cosmetic — any fold order produces identical
        merged state.
        """
        total = FleetMetrics()
        with _timing.maybe_span("metrics.fold"):
            for session in self.sessions:
                total.merge(session.summary())
        return total

    def span_dicts(self) -> list[dict[str, Any]]:
        """Causal spans of every owned session, as plain dicts.

        Each session's tracer is seeded with that session's derived
        seed — the same :func:`~repro.fabric.config.FleetConfig.session_seed`
        every execution mode uses — so span ids are identical whether
        this shard ran serially or in a worker process.  Dicts (not
        :class:`~repro.trace.spans.Span` objects) keep the worker
        return value cheap to pickle.
        """
        out: list[dict[str, Any]] = []
        for session in self.sessions:
            tracer = CausalTracer.from_events(
                session.events(),
                seed=self.config.session_seed(session.index),
                base_attrs={"session": session.index},
            )
            out.extend(span.to_dict() for span in tracer.spans())
        return out

    def close(self) -> None:
        """Tear down every owned session; idempotent (sessions are
        closed at most once even when teardown re-enters)."""
        if self._closed:
            return
        self._closed = True
        for session in self.sessions:
            session.close()


def run_shard(shard_index: int, config: FleetConfig) -> FleetMetrics:
    """Run one shard start-to-finish and return its fold alone.

    Drives the exact tick deadlines of :meth:`FleetConfig.ticks` — the
    same logical clock the serial fleet advances — so a shard's
    sessions consume identical event windows in either execution.
    """
    return run_shard_traced(shard_index, config, trace=False)[0]


def run_shard_traced(
    shard_index: int,
    config: FleetConfig,
    trace: bool = True,
    profile: bool = False,
) -> tuple[FleetMetrics, list[dict[str, Any]], dict[str, dict[str, float]]]:
    """:func:`run_shard` plus observability payloads.

    Returns ``(fold, span_dicts, profile_aggregates)``; the fold is
    byte-identical to :func:`run_shard`'s (tracing reads state, never
    writes it), spans are collected before teardown, and the timing
    aggregates are empty unless ``profile`` asked for them.
    """
    profiler = _timing.Profiler() if profile else None
    shard = Shard(shard_index, config)
    try:
        with _timing.activate(profiler) if profiler is not None else nullcontext():
            shard.advance(*config.ticks())
            metrics = shard.summary()
        spans = shard.span_dicts() if trace else []
    finally:
        shard.close()
    return metrics, spans, profiler.aggregates() if profiler is not None else {}
