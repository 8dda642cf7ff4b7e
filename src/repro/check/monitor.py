"""Live session monitors: invariants checked while a session runs.

Net-level proofs (:mod:`repro.check.induct`) certify the *models*; the
monitors certify the *implementation while it executes*.  A
:class:`SessionMonitor` attaches named invariants to a running
:class:`~repro.api.session.Session`: every floor-control event the
server logs (grant, release, token pass, join/leave from churn, mode
change, ...) triggers a re-check, and a periodic sweep on the session
clock catches state changed by non-logged paths (partitions, link
dynamics).  Violations are recorded once per failure episode — with
the virtual time, the invariant name, and a human-readable detail —
and folded into the session report as ``check_violations``.

Invariants live in a name registry so session configs, scripted
``assert_invariant`` steps, and sweep cells can all refer to them by
string.  Built in:

* ``single_speaker`` — every channel keeps its mode's delivery
  discipline: at most one speaker on an exclusive (equal-control)
  channel, at most the two peers on a direct-contact window, and no
  speaker from outside the group on any channel (the runtime face of
  the per-channel floor discipline; the *token-serialization* mutex of
  the non-exclusive modes lives in the channel nets and is proved by
  :mod:`repro.check.induct`, since the live server has no per-post
  token object to observe);
* ``queue_consistent`` — no duplicate waiters, and the current holder
  never waits behind themselves;
* ``holder_is_member`` — whoever holds a floor token is actually a
  member of that group (churn must not leave tokens with ghosts).

The monitor only *reads* server state (tokens, registry, modes); it
never arbitrates, so attaching it cannot change a run's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from ..core.modes import FCMMode
from ..errors import CheckError, FloorControlError
from ..events import EventKind, FloorEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api.session import Session

__all__ = [
    "Violation",
    "SessionMonitor",
    "register_invariant",
    "unregister_invariant",
    "invariant_names",
    "evaluate_invariant",
]

#: An invariant reads the session and returns ``None`` (holds) or a
#: human-readable violation detail.
InvariantFn = Callable[["Session"], "str | None"]

#: Event kinds that re-trigger the monitor (floor control and
#: membership churn; posts and sync traffic do not move floor state).
_TRIGGER_KINDS = frozenset(
    {
        EventKind.GRANT,
        EventKind.QUEUE,
        EventKind.DENY,
        EventKind.ABORT,
        EventKind.TOKEN_PASS,
        EventKind.JOIN,
        EventKind.LEAVE,
        EventKind.MODE_CHANGE,
        EventKind.SUSPEND,
        EventKind.RESUME,
        EventKind.INVITE_RESPONSE,
    }
)


@dataclass(frozen=True)
class Violation:
    """One recorded invariant violation."""

    time: float
    invariant: str
    detail: str
    trigger: str = ""

    def render(self) -> str:
        """``t=<time> <invariant>: <detail>`` one-liner."""
        return f"t={self.time:.3f} {self.invariant}: {self.detail}"


# ----------------------------------------------------------------------
# Built-in invariants
# ----------------------------------------------------------------------
def _groups_with_modes(session: "Session"):
    control = session.server.control
    for group in control.registry.groups():
        try:
            mode = control.mode_of(group.group_id)
        except FloorControlError:
            continue
        yield group, mode


def single_speaker(session: "Session") -> str | None:
    """Every channel keeps its mode's delivery discipline.

    Exclusive channels allow at most one speaker; a direct-contact
    window holds at most its two peers; and no mode lets a non-member
    deliver on the channel.
    """
    control = session.server.control
    for group, mode in _groups_with_modes(session):
        speakers = control.current_speakers(group.group_id)
        strangers = speakers - set(group.members)
        if strangers:
            return (
                f"channel {group.group_id!r} ({mode.value}) has speakers "
                f"outside the group: {sorted(strangers)}"
            )
        # Tripwire, not a live code path: today current_speakers()
        # derives an exclusive channel's speakers from the single token
        # holder, so this cannot fire — it exists to catch a future
        # regression of current_speakers itself (e.g. returning chair
        # plus holder).  The token discipline proper is proved at the
        # net level and watched by queue_consistent/holder_is_member.
        if mode.is_exclusive and len(speakers) > 1:
            return (
                f"channel {group.group_id!r} ({mode.value}) has "
                f"{len(speakers)} simultaneous speakers: {sorted(speakers)}"
            )
        if mode is FCMMode.DIRECT_CONTACT and len(group.members) > 2:
            return (
                f"direct-contact channel {group.group_id!r} has "
                f"{len(group.members)} members: {sorted(group.members)}"
            )
    return None


def queue_consistent(session: "Session") -> str | None:
    """Token wait queues have no duplicates and never hold the holder."""
    arbitrator = session.server.control.arbitrator
    for group, __ in _groups_with_modes(session):
        token = arbitrator.peek_token(group.group_id)
        if token is None:
            continue  # never arbitrated: trivially consistent
        waiting = token.waiting()
        if len(waiting) != len(set(waiting)):
            return (
                f"channel {group.group_id!r} queue has duplicates: {waiting}"
            )
        if token.holder is not None and token.holder in waiting:
            return (
                f"channel {group.group_id!r}: holder {token.holder!r} is "
                f"also queued"
            )
    return None


def holder_is_member(session: "Session") -> str | None:
    """Every floor-token holder is a current member of their group."""
    arbitrator = session.server.control.arbitrator
    for group, __ in _groups_with_modes(session):
        token = arbitrator.peek_token(group.group_id)
        if token is None:
            continue  # never arbitrated: nobody holds anything
        if token.holder is not None and token.holder not in group:
            return (
                f"channel {group.group_id!r}: holder {token.holder!r} is "
                f"not a member of the group"
            )
    return None


_INVARIANTS: dict[str, InvariantFn] = {}


def register_invariant(name: str, fn: InvariantFn) -> None:
    """Register an invariant under a unique name.

    Re-registering the *same* callable under the same name is a no-op
    (safe under module re-import in spawned workers); a conflicting
    registration raises.

    Raises
    ------
    CheckError
        If the name is already taken by a different invariant.
    """
    existing = _INVARIANTS.get(name)
    if existing is not None and existing is not fn:
        raise CheckError(f"invariant {name!r} is already registered")
    _INVARIANTS[name] = fn


def unregister_invariant(name: str) -> None:
    """Remove a registered invariant (no-op when unknown)."""
    _INVARIANTS.pop(name, None)


def invariant_names() -> list[str]:
    """All registered invariant names, sorted."""
    return sorted(_INVARIANTS)


def evaluate_invariant(name: str, session: "Session") -> str | None:
    """Evaluate one named invariant right now.

    Returns ``None`` when it holds, else the violation detail.

    Raises
    ------
    CheckError
        On an unknown invariant name (the message lists what exists).
    """
    if name not in _INVARIANTS:
        raise CheckError(
            f"unknown invariant {name!r}; registered: {invariant_names()}"
        )
    return _INVARIANTS[name](session)


register_invariant("single_speaker", single_speaker)
register_invariant("queue_consistent", queue_consistent)
register_invariant("holder_is_member", holder_is_member)


# ----------------------------------------------------------------------
# The monitor
# ----------------------------------------------------------------------
class SessionMonitor:
    """Checks named invariants against a live session as it runs.

    Attach at build time via ``SessionConfig.checks`` (or the builder's
    ``checks(...)`` knob) — the session then owns the monitor, stops it
    on close, and folds its violations into the report.  Stand-alone
    attachment works too::

        monitor = SessionMonitor(session, ["single_speaker"])
        ...
        monitor.stop()

    Each invariant records one :class:`Violation` per failure episode,
    where an episode is a maximal run of checks observing the *same*
    failure detail: a failing invariant that keeps failing identically
    does not flood the list, but a changed detail, or a re-failure
    after the invariant recovered (or after a different failure took
    over), is recorded again.
    """

    def __init__(
        self,
        session: "Session",
        invariants: Iterable[str],
        sweep_interval: float = 0.5,
    ) -> None:
        names = list(dict.fromkeys(invariants))  # dedup, keep order
        if not names:
            raise CheckError("a monitor needs at least one invariant")
        unknown = sorted(set(names) - set(_INVARIANTS))
        if unknown:
            raise CheckError(
                f"unknown invariants {unknown!r}; registered: "
                f"{invariant_names()}"
            )
        if sweep_interval <= 0:
            raise CheckError(
                f"sweep_interval must be positive, got {sweep_interval!r}"
            )
        self.session = session
        self.names: tuple[str, ...] = tuple(names)
        self.violations: list[Violation] = []
        self.checks_run = 0
        self._active: set[tuple[str, str]] = set()
        self._stopped = False
        # A *filtered* subscription: the bus only dispatches the
        # floor-moving kinds to us, so posts/heartbeats/sync traffic no
        # longer pay a per-event monitor callback.
        self._unsubscribe = session.server.control.log.subscribe(
            self._on_event, kinds=_TRIGGER_KINDS
        )
        from ..clock.virtual import periodic

        self._sweep = periodic(
            session.clock, sweep_interval, self._on_sweep
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """No violation recorded so far."""
        return not self.violations

    def render(self) -> str:
        """Multi-line summary of all recorded violations.

        When the session carries a live metrics fold
        (:mod:`repro.metrics`), one trailing line reports the floor
        service the checks covered — all-time fold state, valid even
        after ring-mode transcript eviction.
        """
        if not self.violations:
            lines = [
                f"checks: {len(self.names)} invariants, "
                f"{self.checks_run} checks, no violations"
            ]
        else:
            lines = [
                f"checks: {len(self.violations)} violations "
                f"over {self.checks_run} checks"
            ]
            lines += [f"  {violation.render()}" for violation in self.violations]
        fold = getattr(self.session, "metrics", None)
        if fold is not None and fold.events:
            summary = fold.latency_summary()
            lines.append(
                f"  covered: {fold.count(EventKind.REQUEST)} requests, "
                f"{fold.served} served, grant p95 "
                f"{summary['grant_p95'] * 1000:.1f} ms"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def check_now(self, trigger: str = "manual") -> list[Violation]:
        """Run every monitored invariant once; returns *newly recorded*
        violations (already-active episodes are not re-recorded)."""
        new: list[Violation] = []
        now = self.session.clock.now()
        for name in self.names:
            detail = _INVARIANTS[name](self.session)
            self.checks_run += 1
            if detail is None:
                # Episode over: allow the same failure to be recorded
                # again if it comes back later.
                self.clear_episodes(name)
                continue
            key = (name, detail)
            if key in self._active:
                continue
            # An invariant observes one failure at a time, so its
            # active episode is exactly the current detail — dropping
            # stale details here is what lets a healed-then-rebroken
            # failure be recorded again even while a *different*
            # failure of the same invariant kept it failing throughout.
            self.clear_episodes(name)
            self._active.add(key)
            violation = Violation(
                time=now, invariant=name, detail=detail, trigger=trigger
            )
            self.violations.append(violation)
            new.append(violation)
        return new

    def clear_episodes(self, invariant: str) -> None:
        """End every active failure episode of one invariant, so the
        same failure is recorded again if it comes back later.  Called
        when a check of that invariant passes — including external spot
        checks of invariants this monitor does not itself watch."""
        self._active = {key for key in self._active if key[0] != invariant}

    def record_external(
        self, invariant: str, detail: str, trigger: str = "assert"
    ) -> Violation | None:
        """Fold a violation observed by an external spot check (e.g.
        the session's ``assert_invariant`` verb, which may assert
        invariants this monitor is not configured to watch) into the
        recorded list.  Episode dedup applies; returns the new
        :class:`Violation`, or ``None`` when the episode is already
        active."""
        key = (invariant, detail)
        if key in self._active:
            return None
        self.clear_episodes(invariant)
        self._active.add(key)
        violation = Violation(
            time=self.session.clock.now(),
            invariant=invariant,
            detail=detail,
            trigger=trigger,
        )
        self.violations.append(violation)
        return violation

    def stop(self) -> None:
        """Detach from the event log and cancel the sweep; idempotent."""
        if self._stopped:
            return
        self._stopped = True
        self._unsubscribe()
        self._sweep.cancel()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_event(self, event: FloorEvent) -> None:
        # Kind filtering happens in the bus subscription; only the
        # stopped guard remains (stop() may race a queued dispatch).
        if self._stopped:
            return
        self.check_now(trigger=event.kind.value)

    def _on_sweep(self) -> None:
        if not self._stopped:
            self.check_now(trigger="sweep")
