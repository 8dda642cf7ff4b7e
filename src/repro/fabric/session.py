"""Per-session engines the fleet scheduler drives tick by tick.

Every fleet session exposes the same four methods —

    ``advance(until)``  consume everything due at or before ``until``
    ``summary()``       fold the session into a :class:`FleetMetrics`
    ``events()``        the retained transcript (ring tail)
    ``close()``         tear the session down (idempotent)

— so shards host any of the three fleet engines interchangeably:

* :class:`FleetSession` (``engine="batch"``) drives a built-in
  reference policy through :class:`~repro.api.policies.PolicyDriver`,
  the workload loop bare-policy sweep cells share: requests due in one
  tick go through the policy's batch seam
  (:meth:`~repro.api.policies.ArbitratedPolicy.request_batch` →
  :meth:`~repro.core.arbitrator.Arbitrator.arbitrate_batch`), the
  workload arrives as a lazy stream, and the transcript is ring-bounded
  — this is the 10k+ concurrent-session benchmark path.
* :class:`FleetSession` with ``engine="compiled"`` swaps the reference
  policy for its array-compiled twin (:mod:`repro.engine`): same
  driver, same batch seam, but decisions and events run over flat index
  arrays.  Metrics folds and ring-bounded transcripts are
  byte-identical to the batch engine; only the wall-clock changes
  (bench E16 pins ≥5x).
* :class:`FacadeFleetSession` (``engine="facade"``) stands up a full
  :class:`~repro.api.session.Session` per fleet session — simulated
  network, presence, optional partition dynamics and runtime checks —
  reusing one scripted :class:`~repro.api.scenario.Scenario` per
  session.  Slower, but exercises the whole stack (the soak path).

Grant latencies fold straight into the streaming histogram as events
happen; neither engine ever buffers its event history for metrics, so
per-session memory stays O(members + ring capacity).
"""

from __future__ import annotations

from dataclasses import replace

from ..api.policies import PolicyDriver
from ..engine import make_engine_policy
from ..metrics import FleetMetrics, MetricsFold
from ..workload.generator import WorkloadConfig
from .config import FleetConfig
from .workload import stream_rows

__all__ = ["FacadeFleetSession", "FleetSession", "make_session"]


def make_session(index: int, config: FleetConfig):
    """Build fleet session ``index`` with the engine the config names."""
    if config.engine == "facade":
        return FacadeFleetSession(index, config)
    return FleetSession(index, config)


def _workload(index: int, config: FleetConfig) -> WorkloadConfig:
    return WorkloadConfig(
        members=config.members,
        duration=config.duration,
        seed=config.session_seed(index),
        mean_hold=config.mean_hold,
        request_rate=config.request_rate,
    )


class FleetSession:
    """One batch- or compiled-engine session: a built-in floor policy
    fed a lazy workload."""

    __slots__ = ("index", "config", "policy", "_driver")

    def __init__(self, index: int, config: FleetConfig) -> None:
        self.index = index
        self.config = config
        self.policy = make_engine_policy(
            config.policy,
            engine="compiled" if config.engine == "compiled" else "reference",
            log_capacity=config.ring_capacity,
        )
        # The shared kernel in fold mode: O(members + outstanding
        # requests) state, exact commutative merge across the fleet.
        self._driver = PolicyDriver(
            self.policy,
            MetricsFold(mode="fold"),
            stream_rows(config.scenario, _workload(index, config)),
        )

    # ------------------------------------------------------------------
    # Lockstep interface
    # ------------------------------------------------------------------
    def advance(self, until: float) -> int:
        """Consume every workload event due at or before ``until``;
        returns how many were consumed."""
        return self._driver.advance(until)

    def summary(self) -> FleetMetrics:
        """This session as a mergeable :class:`FleetMetrics`.

        The grant/queue split and the ring evictions come from the
        policy's own surface, which every built-in policy shares on
        both engines — the folds are byte-identical across engines.
        """
        driver = self._driver
        stats = self.policy.stats
        served = driver.fold.served
        return FleetMetrics(
            sessions=1,
            events=driver.events,
            requests=driver.requests,
            granted=stats.granted,
            queued=stats.queued,
            denied=stats.denied,
            aborted=stats.aborted,
            served=served,
            posts=driver.posts,
            evicted=self.policy.evicted,
            histogram=driver.fold.histogram,
            fairness_n=1,
            fairness_total=served,
            fairness_sumsq=served * served,
        )

    def events(self):
        """The session's retained transcript (ring tail)."""
        return self.policy.events()

    def close(self) -> None:
        """Drop the workload stream; idempotent."""
        self._driver.close()


class FacadeFleetSession:
    """One facade-engine session: the full DMPS stack behind a script."""

    __slots__ = ("index", "config", "session", "_scenario_steps", "_fold")

    def __init__(self, index: int, config: FleetConfig) -> None:
        from ..api.config import SessionBuilder
        from ..api.scenario import Scenario
        from ..workload.generator import generate, member_names

        workload = _workload(index, config)
        builder = (
            SessionBuilder(chair="teacher")
            .link(latency=config.latency)
            .policy(config.policy)
            .seed(workload.seed)
            .heartbeats(None)
            .clock_sync(None)
            .transcript_capacity(config.ring_capacity)
        )
        for name in member_names(config.members):
            builder.participant(name)
        if config.partition_start is not None:
            builder.partition_window(
                config.partition_start, config.partition_duration
            )
        if config.checks:
            builder.checks(*config.checks)
        self.index = index
        self.config = config
        self.session = builder.build()
        # The shared kernel in fold mode: O(members + outstanding
        # requests) state, exact commutative merge across the fleet.
        self._fold = MetricsFold(mode="fold")
        self._subscribe()
        events = generate(config.scenario, workload)
        self._scenario_steps = len(events)
        # Mode-less requests, like the session sweep cells: the
        # session's own policy arbitrates every request.
        Scenario.from_workload(
            [replace(event, mode=None) for event in events], name=config.scenario
        ).schedule(self.session)

    def _subscribe(self) -> None:
        from ..events.types import EventKind

        # The kernel's add() does the REQUEST→GRANT/TOKEN_PASS pairing
        # itself, so the fold is the listener.
        self.session.bus.subscribe(
            self._fold.add,
            kinds=(EventKind.REQUEST, EventKind.GRANT, EventKind.TOKEN_PASS),
        )

    # ------------------------------------------------------------------
    # Lockstep interface
    # ------------------------------------------------------------------
    def advance(self, until: float) -> int:
        """Run the session's virtual time up to ``until``.

        A deadline before the session clock runs nothing: building the
        session already ran its clock through the join warm-up, which a
        sub-second fleet tick falls inside.  A deadline equal to now
        still runs the events due then.
        """
        if until < self.session.now():
            return 0
        return self.session.run_until(until)

    def summary(self) -> FleetMetrics:
        """This session as a mergeable :class:`FleetMetrics`."""
        control = self.session.server.control
        stats = control.arbitrator.stats
        served = self._fold.served
        return FleetMetrics(
            sessions=1,
            events=self._scenario_steps,
            requests=stats.decisions,
            granted=stats.granted,
            queued=stats.queued,
            denied=stats.denied,
            aborted=stats.aborted,
            served=served,
            posts=sum(len(board) for board in self.session.server._boards.values()),
            evicted=control.log.evicted,
            listener_errors=self.session.bus.listener_error_count,
            histogram=self._fold.histogram,
            fairness_n=1,
            fairness_total=served,
            fairness_sumsq=served * served,
        )

    def events(self):
        """The session's retained transcript (ring tail)."""
        return list(self.session.bus)

    def close(self) -> None:
        """Close the underlying facade session; idempotent."""
        self.session.close()
