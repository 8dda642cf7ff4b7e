"""Scripted scenarios: timed action lists a session executes.

Every example and benchmark used to hand-roll its own event loop of
``clock.call_at(...)`` calls.  A :class:`Scenario` is that script as a
value: an ordered list of :class:`ScenarioStep` items built with the
:func:`at` helper, runnable against any
:class:`~repro.api.session.Session`::

    scenario = Scenario().add(
        at(1.5, "request_floor", "alice"),
        at(2.5, "post", "alice", content="my point"),
        at(3.5, "release_floor", "alice"),
    )
    scenario.run(session)

Steps name a verb on the session facade (``"post"``,
``"request_floor"``, ``"release_floor"``, ``"set_mode"``,
``"disconnect"``, ...) or carry an arbitrary callable taking the
session.  :meth:`Scenario.from_workload` converts the seeded event
lists of :mod:`repro.workload.generator`, which is how the CLI and the
benchmarks feed generated workloads through the facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import Session

__all__ = ["Scenario", "ScenarioStep", "at"]

#: Workload generator action -> session verb.
_WORKLOAD_VERBS = {
    "request": "request_floor",
    "release": "release_floor",
    "post": "post",
}


@dataclass(frozen=True)
class ScenarioStep:
    """One scripted action at an absolute virtual time.

    ``action`` is either the name of a :class:`Session` verb (invoked
    as ``verb(member, **kwargs)`` — ``member`` omitted when ``None``)
    or a callable invoked as ``action(session)``.
    """

    time: float
    action: str | Callable[["Session"], Any]
    member: str | None = None
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def apply(self, session: "Session") -> None:
        """Execute this step against a session facade."""
        if callable(self.action):
            self.action(session)
            return
        verb = getattr(session, self.action, None)
        if verb is None:
            raise ReproError(f"session has no verb {self.action!r}")
        args = (self.member,) if self.member is not None else ()
        verb(*args, **dict(self.kwargs))


def at(
    time: float,
    action: str | Callable[["Session"], Any],
    member: str | None = None,
    **kwargs: Any,
) -> ScenarioStep:
    """Build one :class:`ScenarioStep`: ``at(2.0, "post", "alice",
    content="hi")`` runs ``session.post("alice", content="hi")`` at
    virtual time 2.0."""
    return ScenarioStep(time=time, action=action, member=member, kwargs=kwargs)


class Scenario:
    """An ordered, replayable script of session actions.

    Steps sort by time (stable, so same-instant steps keep insertion
    order — matching the FIFO guarantee of the virtual clock).
    """

    def __init__(self, steps: Iterable[ScenarioStep] = (), name: str = "") -> None:
        self._steps: list[ScenarioStep] = list(steps)
        self.name = name

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, *steps: ScenarioStep) -> "Scenario":
        """Append steps; returns ``self`` for chaining."""
        self._steps.extend(steps)
        return self

    @classmethod
    def from_workload(cls, events: Iterable[Any], name: str = "") -> "Scenario":
        """Convert :class:`~repro.workload.generator.RequestEvent` items
        (or anything with ``time``/``member``/``action``/``mode``/
        ``content`` attributes) into a scenario.

        A request whose ``mode`` is ``None`` is sent without an explicit
        mode, so the session's own policy arbitrates it.

        Raises
        ------
        ReproError
            On an event action the session facade cannot express.
        """
        steps = []
        for event in events:
            verb = _WORKLOAD_VERBS.get(event.action)
            if verb is None:
                raise ReproError(f"unknown workload action {event.action!r}")
            kwargs: dict[str, Any] = {}
            if event.action == "request" and event.mode is not None:
                kwargs["mode"] = event.mode
            elif event.action == "post":
                kwargs["content"] = event.content or "(empty)"
            steps.append(
                ScenarioStep(
                    time=event.time, action=verb, member=event.member, kwargs=kwargs
                )
            )
        return cls(steps, name=name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def steps(self) -> list[ScenarioStep]:
        """The steps in execution order (a copy)."""
        return sorted(self._steps, key=lambda step: step.time)

    @property
    def duration(self) -> float:
        """Time of the last step (0.0 when empty)."""
        if not self._steps:
            return 0.0
        return max(step.time for step in self._steps)

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[ScenarioStep]:
        return iter(self.steps)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def schedule(self, session: "Session") -> None:
        """Queue every step on the session's clock without running it.

        Steps whose time already passed (e.g. generated workload events
        that fall inside the session's join warmup) run at the current
        instant instead, preserving their relative order."""
        now = session.clock.now()
        for step in self.steps:
            session.clock.call_at(max(step.time, now), step.apply, session)

    def run(self, session: "Session", until: float | None = None) -> "Session":
        """Schedule all steps and run virtual time to ``until``
        (default: one second past the last step, so trailing network
        messages settle).  Returns the session for chaining."""
        self.schedule(session)
        deadline = until if until is not None else self.duration + 1.0
        session.run_until(deadline)
        return session
