"""Fleet description: what runs, how many, and how it is sharded.

A :class:`FleetConfig` freezes everything a fleet run depends on.  Two
kinds of parameters are deliberately kept apart:

* *identity* parameters (scenario, members, policy, duration, …) feed
  the per-session seed derivation, so changing them changes the
  simulated behaviour;
* *execution* parameters (``shards``, ``tick``, ``ring_capacity``,
  ``engine`` knobs) only change how the same behaviour is computed —
  they are excluded from seed derivation, and the tests pin that
  results do not depend on them.

Per-session seeds come from the sweep engine's
:func:`~repro.experiments.spec.derive_seed` with runner name
``"fleet"`` and the session index as one of the parameters, so a fleet
is reproducible from ``(config, seed)`` alone and session ``i`` keeps
its seed when the fleet grows around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

from ..core.modes import FCMMode
from ..errors import ReproError
from ..experiments.spec import derive_seed
from ..workload.generator import check_workload_rates

__all__ = ["FleetBuilder", "FleetConfig"]

_SCENARIOS = ("lecture", "seminar", "panel", "storm")
_ENGINES = ("batch", "compiled", "facade")
_MODES = frozenset(mode.value for mode in FCMMode)


@dataclass(frozen=True)
class FleetConfig:
    """The full, frozen description of one fleet run.

    ``policy`` names one of the six built-in policies (the four FCM
    modes, ``fifo``, ``free_for_all``).  ``engine`` selects the
    per-session machinery: ``"batch"`` drives the reference policies
    directly (allocation-light; the 10k+ session benchmark path),
    ``"compiled"`` drives their array-compiled twins in
    :mod:`repro.engine` through the same lockstep schedule
    (fastest; byte-identical metrics and transcripts to ``"batch"``),
    and ``"facade"`` stands up a full
    :class:`~repro.api.session.Session` per fleet session, including
    the simulated network and optional partition dynamics (the soak /
    example path).  All three are deterministic for a given config,
    and because ``engine`` is an execution parameter it never enters
    seed derivation — switching it cannot change the workload.
    """

    sessions: int = 100
    shards: int = 1
    members: int = 4
    policy: str = "equal_control"
    scenario: str = "seminar"
    duration: float = 30.0
    tick: float = 1.0
    ring_capacity: int | None = 256
    mean_hold: float = 4.0
    request_rate: float = 0.5
    engine: str = "batch"
    seed: int = 0
    # Facade-engine knobs (ignored by the batch engine).
    latency: float = 0.005
    partition_start: float | None = None
    partition_duration: float = 0.0
    checks: tuple[str, ...] = field(default=())

    def validate(self) -> None:
        """Reject inconsistent fleets before any session is built."""
        check_workload_rates(self)
        for name in ("tick", "latency", "partition_start", "partition_duration"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ReproError(f"{name} must be finite, got {value!r}")
        if self.sessions < 1:
            raise ReproError(f"a fleet needs at least one session, got {self.sessions!r}")
        if not 1 <= self.shards:
            raise ReproError(f"shards must be positive, got {self.shards!r}")
        if self.shards > self.sessions:
            raise ReproError(
                f"more shards ({self.shards}) than sessions ({self.sessions})"
            )
        if self.members < 1:
            raise ReproError(f"members must be positive, got {self.members!r}")
        if self.duration <= 0:
            raise ReproError(f"duration must be positive, got {self.duration!r}")
        if self.tick <= 0:
            raise ReproError(f"tick must be positive, got {self.tick!r}")
        if self.ring_capacity is not None and self.ring_capacity < 1:
            raise ReproError(
                f"ring_capacity must be positive or None, got {self.ring_capacity!r}"
            )
        if self.scenario not in _SCENARIOS:
            raise ReproError(
                f"unknown fleet scenario {self.scenario!r}; one of {list(_SCENARIOS)}"
            )
        if self.engine not in _ENGINES:
            raise ReproError(
                f"unknown fleet engine {self.engine!r}; one of {list(_ENGINES)}"
            )
        if self.partition_duration < 0:
            raise ReproError(
                f"partition_duration must be >= 0, got {self.partition_duration!r}"
            )
        if self.partition_start is not None and self.partition_duration <= 0:
            raise ReproError(
                "a scheduled partition needs a positive partition_duration"
            )
        if self.partition_start is None and self.partition_duration > 0:
            raise ReproError(
                "partition_duration set but partition_start is None"
            )
        from ..engine import compiled_policy_names

        if self.policy not in compiled_policy_names():
            raise ReproError(
                f"policy {self.policy!r} has no compiled engine; fleets run "
                f"only the built-in policies {compiled_policy_names()}"
            )
        if self.engine == "facade" and self.policy not in _MODES:
            raise ReproError(
                f"the facade engine needs a session floor mode, "
                f"got policy {self.policy!r}"
            )

    # ------------------------------------------------------------------
    # Seeds and sharding
    # ------------------------------------------------------------------
    def session_seed(self, index: int) -> int:
        """Deterministic seed of fleet session ``index``.

        Only identity parameters enter the derivation; ``shards``,
        ``tick``, ``ring_capacity`` and the engine knobs never reseed
        a session, which is what lets the tests pin that execution
        layout does not change results.
        """
        if not 0 <= index < self.sessions:
            raise ReproError(
                f"session index {index} out of range [0, {self.sessions})"
            )
        return derive_seed(
            self.seed,
            "fleet",
            {
                "session": index,
                "members": self.members,
                "policy": self.policy,
                "scenario": self.scenario,
                "duration": self.duration,
                "mean_hold": self.mean_hold,
                "request_rate": self.request_rate,
            },
        )

    def shard_of(self, index: int) -> int:
        """Which shard owns session ``index``.

        Round-robin (``index % shards``) keeps the assignment stable
        under fleet growth: adding sessions never moves an existing
        session to a different shard.
        """
        return index % self.shards

    def shard_sessions(self, shard: int) -> range:
        """The session indices shard ``shard`` owns (ascending)."""
        if not 0 <= shard < self.shards:
            raise ReproError(f"shard index {shard} out of range [0, {self.shards})")
        return range(shard, self.sessions, self.shards)

    def ticks(self) -> Iterator[float]:
        """The lockstep tick deadlines: ``tick, 2·tick, …, duration``.

        The final deadline is exactly ``duration`` so every engine
        consumes the same event window whatever the tick size.
        """
        deadline = self.tick
        while deadline < self.duration:
            yield deadline
            deadline += self.tick
        yield self.duration


class FleetBuilder:
    """Fluent builder for :class:`FleetConfig` / live fleets.

    Example::

        result = (FleetBuilder()
                  .sessions(1000).shards(4)
                  .policy("equal_control").scenario("seminar")
                  .duration(30.0).seed(7)
                  .run(workers=4))
    """

    def __init__(self) -> None:
        self._config = FleetConfig()

    def _set(self, **kwargs) -> "FleetBuilder":
        self._config = replace(self._config, **kwargs)
        return self

    def sessions(self, count: int) -> "FleetBuilder":
        """Fleet size: how many independent DMPS sessions run."""
        return self._set(sessions=count)

    def shards(self, count: int) -> "FleetBuilder":
        """How many shared-nothing shards the fleet splits into."""
        return self._set(shards=count)

    def members(self, count: int) -> "FleetBuilder":
        """Participants per session (plus the chair)."""
        return self._set(members=count)

    def policy(self, name: str) -> "FleetBuilder":
        """Floor policy every session runs (a built-in policy name)."""
        return self._set(policy=name)

    def scenario(self, name: str) -> "FleetBuilder":
        """Workload scenario every session replays (seeded per session)."""
        return self._set(scenario=name)

    def duration(self, seconds: float) -> "FleetBuilder":
        """Simulated span of the run (virtual seconds)."""
        return self._set(duration=seconds)

    def tick(self, seconds: float) -> "FleetBuilder":
        """Lockstep tick: arbitration is batched per this interval."""
        return self._set(tick=seconds)

    def ring_capacity(self, capacity: int | None) -> "FleetBuilder":
        """Per-session transcript bound (``None`` keeps everything)."""
        return self._set(ring_capacity=capacity)

    def workload(
        self, mean_hold: float | None = None, request_rate: float | None = None
    ) -> "FleetBuilder":
        """Tune the workload generators shared by every session."""
        updates = {}
        if mean_hold is not None:
            updates["mean_hold"] = mean_hold
        if request_rate is not None:
            updates["request_rate"] = request_rate
        return self._set(**updates)

    def engine(self, name: str) -> "FleetBuilder":
        """Per-session machinery: ``"batch"``, ``"compiled"`` or
        ``"facade"`` (see :class:`FleetConfig`)."""
        return self._set(engine=name)

    def seed(self, value: int) -> "FleetBuilder":
        """Root seed every per-session seed derives from."""
        return self._set(seed=value)

    def latency(self, seconds: float) -> "FleetBuilder":
        """Facade engine: network link latency per session."""
        return self._set(latency=seconds)

    def partition(self, start: float, duration: float) -> "FleetBuilder":
        """Facade engine: cut every non-chair member off at ``start``
        for ``duration`` virtual seconds (PR 3 dynamics), per session."""
        return self._set(partition_start=start, partition_duration=duration)

    def checks(self, *names: str) -> "FleetBuilder":
        """Facade engine: runtime invariants each session monitors."""
        return self._set(checks=tuple(dict.fromkeys(names)))

    def config(self) -> FleetConfig:
        """Freeze (and validate) the current state."""
        self._config.validate()
        return self._config

    def run(self, workers: int = 1, on_tick=None):
        """Build and run the fleet; see :func:`~repro.fabric.fleet.run_fleet`."""
        from .fleet import run_fleet

        return run_fleet(self.config(), workers=workers, on_tick=on_tick)
