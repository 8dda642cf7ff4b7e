"""Lazy workload streams: O(members) state however long the run.

The eager generators in :mod:`repro.workload.generator` materialize a
full event list — fine for one session, but a fleet of 10k sessions ×
a long duration would buffer O(fleet × events).  This module yields
the same :class:`~repro.workload.generator.RequestEvent` items
incrementally, holding only per-stream generator state, which is what
keeps a fleet run's memory flat in simulated time.

Fidelity contract, pinned by tests:

* ``seminar`` and ``storm`` are the sequences of
  ``generate(name, config)`` (the same generators; seminar streams
  lazily, storm is O(members) by construction);
* ``lecture`` and ``panel`` are lazy variants that split the single
  eager RNG into one seeded RNG per participant stream (derived via
  :func:`~repro.experiments.spec.derive_seed`) and heap-merge the
  streams chronologically.  They are deterministic for a given config
  but are *distinct sequences* from the eager generators — the eager
  path interleaves one RNG across members, which cannot be reproduced
  without materializing the list.
"""

from __future__ import annotations

import heapq
import random
from typing import Iterator

from ..core.modes import FCMMode
from ..errors import ReproError
from ..experiments.spec import derive_seed
from ..workload.generator import (
    RequestEvent,
    WorkloadConfig,
    _seminar,
    generate,
    member_names,
)

__all__ = ["stream_workload"]


def stream_workload(
    scenario: str, config: WorkloadConfig
) -> Iterator[RequestEvent]:
    """Yield a named scenario's events chronologically, lazily.

    Raises
    ------
    ReproError
        On an unknown scenario name.
    """
    if scenario == "seminar":
        return _seminar(config, random.Random(config.seed))  # as generate() seeds it
    if scenario == "storm":
        return iter(generate("storm", config))
    if scenario == "lecture":
        return _lecture(config)
    if scenario == "panel":
        return _panel(config)
    raise ReproError(f"unknown workload scenario {scenario!r}")


def _stream_rng(config: WorkloadConfig, stream: str) -> random.Random:
    """One independent RNG per participant stream (lazy scenarios)."""
    return random.Random(derive_seed(config.seed, "fleet-workload", {"stream": stream}))


def _merge(*streams: Iterator[RequestEvent]) -> Iterator[RequestEvent]:
    """Chronological heap-merge; holds one pending event per stream."""
    return heapq.merge(*streams, key=lambda event: event.time)


# ----------------------------------------------------------------------
# Lazy per-stream variants
# ----------------------------------------------------------------------
def _lecture(config: WorkloadConfig) -> Iterator[RequestEvent]:
    def teacher_posts() -> Iterator[RequestEvent]:
        rng = _stream_rng(config, "teacher")
        t = 1.0
        while t < config.duration:
            yield RequestEvent(time=t, member="teacher", action="post",
                               mode=FCMMode.EQUAL_CONTROL,
                               content=f"slide@{t:.0f}")
            t += rng.uniform(2.0, 6.0)

    def student(name: str) -> Iterator[RequestEvent]:
        rng = _stream_rng(config, name)
        per_member_rate = config.request_rate / 60.0
        t = rng.expovariate(per_member_rate) if per_member_rate > 0 else config.duration
        while t < config.duration:
            yield RequestEvent(time=t, member=name, action="request",
                               mode=FCMMode.EQUAL_CONTROL)
            hold = rng.expovariate(1.0 / config.mean_hold)
            release_at = min(t + hold, config.duration)
            yield RequestEvent(time=release_at, member=name, action="release",
                               mode=FCMMode.EQUAL_CONTROL)
            t = release_at + rng.expovariate(per_member_rate)

    streams = [teacher_posts()]
    streams += [student(name) for name in member_names(config.members)]
    return _merge(*streams)


def _panel(config: WorkloadConfig) -> Iterator[RequestEvent]:
    names = member_names(config.members)
    panel = names[: max(2, config.members // 4)]
    audience = names[len(panel):]

    def panelist(name: str) -> Iterator[RequestEvent]:
        rng = _stream_rng(config, name)
        t = rng.uniform(0.5, 3.0)
        while t < config.duration:
            yield RequestEvent(time=t, member=name, action="post",
                               mode=FCMMode.FREE_ACCESS, content="panel remark")
            t += rng.uniform(1.0, 5.0)

    def listener(name: str) -> Iterator[RequestEvent]:
        rng = _stream_rng(config, name)
        t = rng.uniform(5.0, config.duration)
        if t < config.duration:
            yield RequestEvent(time=t, member=name, action="request",
                               mode=FCMMode.EQUAL_CONTROL)
            yield RequestEvent(
                time=min(t + config.mean_hold, config.duration),
                member=name,
                action="release",
                mode=FCMMode.EQUAL_CONTROL,
            )

    streams = [panelist(name) for name in panel]
    streams += [listener(name) for name in audience]
    return _merge(*streams)
