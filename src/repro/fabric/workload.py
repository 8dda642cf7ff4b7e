"""Lazy workload streams: O(members) state however long the run.

The eager generators in :mod:`repro.workload.generator` materialize a
full event list — fine for one session, but a fleet of 10k sessions ×
a long duration would buffer O(fleet × events).  This module yields
the same workloads incrementally, holding only per-stream generator
state, which is what keeps a fleet run's memory flat in simulated time.

Fidelity contract, pinned by tests:

* the fleet reads plain ``(time, member, action)`` rows
  (:func:`stream_rows`); no :class:`~repro.workload.generator.RequestEvent`
  is built on that path;
* :func:`stream_workload` adapts the same rows to ``RequestEvent``
  items, with the ``mode`` and ``content`` each scenario gives them,
  for callers of the public API;
* ``seminar`` and ``storm`` are the sequences of
  ``generate(name, config)`` (the same generators; seminar streams
  lazily, storm is O(members) by construction);
* ``lecture`` and ``panel`` are lazy variants that split the single
  eager RNG into one seeded RNG per participant stream (derived via
  :func:`~repro.experiments.spec.derive_seed`) and merge the streams
  through one heap ordered by ``(time, stream index)``: rows due at
  the same instant keep stream order.  They are deterministic for a
  given config but are *distinct sequences* from the eager generators
  — the eager path interleaves one RNG across members, which cannot be
  reproduced without materializing the list.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heapreplace
from typing import Iterator

from ..core.modes import FCMMode
from ..errors import ReproError
from ..experiments.spec import derive_seed
from ..workload.generator import (
    RequestEvent,
    WorkloadConfig,
    _seminar_rows,
    _storm_rows,
    member_names,
)

__all__ = ["Row", "stream_rows", "stream_workload"]

#: One workload action: ``(time, member, action)``, where ``action`` is
#: ``"request"``, ``"release"`` or ``"post"``.
Row = tuple[float, str, str]


def stream_workload(
    scenario: str, config: WorkloadConfig
) -> Iterator[RequestEvent]:
    """Yield a named scenario's events chronologically, lazily.

    Raises
    ------
    ReproError
        On an unknown scenario name.
    """
    rows = stream_rows(scenario, config)
    return (_event(scenario, *row) for row in rows)


def stream_rows(scenario: str, config: WorkloadConfig) -> Iterator[Row]:
    """Yield a named scenario's rows chronologically, lazily.

    Raises
    ------
    ReproError
        On an unknown scenario name.
    """
    if scenario == "seminar":
        return _seminar_rows(config, random.Random(config.seed))  # as generate() seeds it
    if scenario == "storm":
        return iter(_storm_rows(config, random.Random(config.seed)))
    if scenario == "lecture":
        return _lecture(config)
    if scenario == "panel":
        return _panel(config)
    raise ReproError(f"unknown workload scenario {scenario!r}")


def _event(scenario: str, time: float, member: str, action: str) -> RequestEvent:
    """A row as the ``RequestEvent`` the scenario's generator builds:
    floor actions are equal control; only lecture and panel post."""
    if action != "post":
        return RequestEvent(time, member, action, FCMMode.EQUAL_CONTROL)
    if scenario == "lecture":
        return RequestEvent(time, member, action, FCMMode.EQUAL_CONTROL,
                            f"slide@{time:.0f}")
    return RequestEvent(time, member, action, FCMMode.FREE_ACCESS, "panel remark")


def _stream_rng(config: WorkloadConfig, stream: str) -> random.Random:
    """One independent RNG per participant stream (lazy scenarios)."""
    return random.Random(derive_seed(config.seed, "fleet-workload", {"stream": stream}))


def _merge(streams: list[Iterator[Row]]) -> Iterator[Row]:
    """Chronological merge through one heap of ``(time, stream index,
    row, stream)`` entries; holds one pending row per stream, and the
    index breaks ties, so rows are never compared."""
    heap = []
    for index, stream in enumerate(streams):
        row = next(stream, None)
        if row is not None:
            heap.append((row[0], index, row, stream))
    heapify(heap)
    while heap:
        _, index, row, stream = heap[0]
        yield row
        row = next(stream, None)
        if row is None:
            heappop(heap)
        else:
            heapreplace(heap, (row[0], index, row, stream))


# ----------------------------------------------------------------------
# Lazy per-stream variants
# ----------------------------------------------------------------------
def _lecture(config: WorkloadConfig) -> Iterator[Row]:
    duration = config.duration

    def teacher_posts() -> Iterator[Row]:
        uniform = _stream_rng(config, "teacher").uniform
        t = 1.0
        while t < duration:
            yield (t, "teacher", "post")
            t += uniform(2.0, 6.0)

    def student(name: str) -> Iterator[Row]:
        expovariate = _stream_rng(config, name).expovariate
        per_member_rate = config.request_rate / 60.0
        t = expovariate(per_member_rate) if per_member_rate > 0 else duration
        while t < duration:
            yield (t, name, "request")
            release_at = min(t + expovariate(1.0 / config.mean_hold), duration)
            yield (release_at, name, "release")
            t = release_at + expovariate(per_member_rate)

    streams = [teacher_posts()]
    streams += [student(name) for name in member_names(config.members)]
    return _merge(streams)


def _panel(config: WorkloadConfig) -> Iterator[Row]:
    names = member_names(config.members)
    panel = names[: max(2, config.members // 4)]
    audience = names[len(panel):]

    def panelist(name: str) -> Iterator[Row]:
        rng = _stream_rng(config, name)
        t = rng.uniform(0.5, 3.0)
        while t < config.duration:
            yield (t, name, "post")
            t += rng.uniform(1.0, 5.0)

    def listener(name: str) -> Iterator[Row]:
        rng = _stream_rng(config, name)
        t = rng.uniform(5.0, config.duration)
        if t < config.duration:
            yield (t, name, "request")
            yield (min(t + config.mean_hold, config.duration), name, "release")

    streams = [panelist(name) for name in panel]
    streams += [listener(name) for name in audience]
    return _merge(streams)
