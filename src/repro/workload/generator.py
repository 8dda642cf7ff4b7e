"""Seeded workload generators for floor-control experiments.

The paper's prototype was exercised by a real classroom; the simulation
replaces students with seeded request generators.  Each scenario yields
a chronological list of :class:`RequestEvent` items the benchmark
harness feeds into a :class:`~repro.core.server.FloorControlServer` (or
a full DMPS session).

Scenarios
---------
``lecture``
    The chair speaks most of the time; students occasionally ask for
    the floor (equal control).
``seminar``
    Members take the floor round-robin with think time.
``panel``
    A small panel shares free access while the audience requests
    sporadically.
``storm``
    Every member requests at nearly the same instant — the worst case
    for the arbitration queue (E3/E9).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from ..core.modes import FCMMode
from ..errors import ReproError

__all__ = ["RequestEvent", "WorkloadConfig", "generate", "scenario"]


@dataclass(frozen=True)
class RequestEvent:
    """One scheduled participant action.

    ``action`` is ``"request"`` (ask for the floor), ``"release"``
    (pass the token), or ``"post"`` (send a message).  A ``mode`` of
    ``None`` leaves the mode to the session's policy.
    """

    time: float
    member: str
    action: str
    mode: FCMMode | None = FCMMode.FREE_ACCESS
    content: str = ""


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters shared by every scenario.

    Raises
    ------
    ReproError
        At construction, on a non-finite ``duration``, ``mean_hold`` or
        ``request_rate``, a ``mean_hold`` that is not positive (a hold
        must move time forward) or a negative ``request_rate``.
    """

    members: int = 8
    duration: float = 60.0
    seed: int = 0
    mean_hold: float = 4.0      # seconds a granted speaker keeps the floor
    request_rate: float = 0.5   # requests per member per minute (lecture)

    def __post_init__(self) -> None:
        check_workload_rates(self)


def check_workload_rates(config) -> None:
    """Refuse the ``duration``, ``mean_hold`` and ``request_rate`` a
    workload cannot run on; ``config`` is any object with those three
    attributes (a :class:`WorkloadConfig`, a fleet config).

    Raises
    ------
    ReproError
        On a non-finite value, a ``mean_hold`` that is not positive or
        a negative ``request_rate``.
    """
    for name in ("duration", "mean_hold", "request_rate"):
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ReproError(f"{name} must be finite, got {value!r}")
    if config.mean_hold <= 0:
        raise ReproError(f"mean_hold must be positive, got {config.mean_hold!r}")
    if config.request_rate < 0:
        raise ReproError(
            f"request_rate must be >= 0, got {config.request_rate!r}"
        )


def member_names(count: int) -> list[str]:
    """Canonical member names ``student0..studentN-1``."""
    return [f"student{i}" for i in range(count)]


def generate(scenario: str, config: WorkloadConfig) -> list[RequestEvent]:
    """Generate the event list for a named scenario.

    Raises
    ------
    ReproError
        On an unknown scenario name.
    """
    rng = random.Random(config.seed)
    if scenario == "lecture":
        return _lecture(config, rng)
    if scenario == "seminar":
        return list(_seminar(config, rng))
    if scenario == "panel":
        return _panel(config, rng)
    if scenario == "storm":
        return _storm(config, rng)
    raise ReproError(f"unknown workload scenario {scenario!r}")


def scenario(name: str, config: WorkloadConfig):
    """Generate a named workload as a ready-to-run scripted
    :class:`~repro.api.scenario.Scenario` for the session facade.

    Raises
    ------
    ReproError
        On an unknown scenario name.
    """
    from ..api.scenario import Scenario

    return Scenario.from_workload(generate(name, config), name=name)


def _lecture(config: WorkloadConfig, rng: random.Random) -> list[RequestEvent]:
    events: list[RequestEvent] = []
    # The teacher posts steadily.
    t = 1.0
    while t < config.duration:
        events.append(
            RequestEvent(time=t, member="teacher", action="post",
                         mode=FCMMode.EQUAL_CONTROL, content=f"slide@{t:.0f}")
        )
        t += rng.uniform(2.0, 6.0)
    # Students request the floor at poisson-ish times and release after a hold.
    per_member_rate = config.request_rate / 60.0
    for name in member_names(config.members):
        t = rng.expovariate(per_member_rate) if per_member_rate > 0 else config.duration
        while t < config.duration:
            events.append(
                RequestEvent(time=t, member=name, action="request",
                             mode=FCMMode.EQUAL_CONTROL)
            )
            hold = rng.expovariate(1.0 / config.mean_hold)
            release_at = min(t + hold, config.duration)
            events.append(
                RequestEvent(time=release_at, member=name, action="release",
                             mode=FCMMode.EQUAL_CONTROL)
            )
            t = release_at + rng.expovariate(per_member_rate)
    events.sort(key=lambda event: event.time)
    return events


def _seminar(config: WorkloadConfig, rng: random.Random) -> Iterator[RequestEvent]:
    for time, member, action in _seminar_rows(config, rng):
        yield RequestEvent(time=time, member=member, action=action,
                           mode=FCMMode.EQUAL_CONTROL)


def _seminar_rows(
    config: WorkloadConfig, rng: random.Random
) -> Iterator[tuple[float, str, str]]:
    # Lazy: already chronological through one RNG, so the fleet streams
    # it without buffering (repro.fabric.workload) as plain
    # ``(time, member, action)`` rows.
    names = member_names(config.members)
    t = 1.0
    index = 0
    while t < config.duration:
        speaker = names[index % len(names)]
        yield (t, speaker, "request")
        hold = rng.uniform(0.5, 2.0) * config.mean_hold
        t = min(t + hold, config.duration)
        yield (t, speaker, "release")
        t += rng.uniform(0.1, 1.0)
        index += 1


def _panel(config: WorkloadConfig, rng: random.Random) -> list[RequestEvent]:
    events: list[RequestEvent] = []
    names = member_names(config.members)
    panel = names[: max(2, config.members // 4)]
    audience = names[len(panel):]
    for name in panel:
        t = rng.uniform(0.5, 3.0)
        while t < config.duration:
            events.append(
                RequestEvent(time=t, member=name, action="post",
                             mode=FCMMode.FREE_ACCESS, content="panel remark")
            )
            t += rng.uniform(1.0, 5.0)
    for name in audience:
        t = rng.uniform(5.0, config.duration)
        if t < config.duration:
            events.append(
                RequestEvent(time=t, member=name, action="request",
                             mode=FCMMode.EQUAL_CONTROL)
            )
            events.append(
                RequestEvent(
                    time=min(t + config.mean_hold, config.duration),
                    member=name,
                    action="release",
                    mode=FCMMode.EQUAL_CONTROL,
                )
            )
    events.sort(key=lambda event: event.time)
    return events


def _storm(config: WorkloadConfig, rng: random.Random) -> list[RequestEvent]:
    return [
        RequestEvent(time=time, member=member, action=action,
                     mode=FCMMode.EQUAL_CONTROL)
        for time, member, action in _storm_rows(config, rng)
    ]


def _storm_rows(
    config: WorkloadConfig, rng: random.Random
) -> list[tuple[float, str, str]]:
    rows = [
        (1.0 + rng.uniform(0.0, 0.01), name, "request")
        for name in member_names(config.members)
    ]
    rows.sort(key=lambda row: row[0])
    return rows
