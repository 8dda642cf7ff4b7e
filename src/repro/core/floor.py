"""Floor tokens, requests, and grants.

Equal control mode serializes speakers with a token: "there is only one
(session chair or participant) can deliver at the same time until the
floor control token passed by the holder" (Section 4).

:class:`FloorToken` tracks the holder and the hand-off queue;
:class:`FloorRequest` / :class:`FloorGrant` are the wire-level records
the arbitrator consumes and produces, carrying the timestamps the
latency benchmarks (E3/E9) measure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

from ..errors import FloorControlError
from .modes import FCMMode

__all__ = [
    "FloorToken",
    "FloorRequest",
    "FloorGrant",
    "RequestOutcome",
    "check_floor_time",
]


class RequestOutcome(Enum):
    """Terminal state of a floor request."""

    GRANTED = "granted"
    QUEUED = "queued"
    DENIED = "denied"
    ABORTED = "aborted"  # resources below b: Abort-Arbitrate


@dataclass(frozen=True)
class FloorRequest:
    """A member asking for the floor.

    Attributes
    ----------
    request_id:
        Server-assigned identifier.
    member:
        Requesting member name (``M`` in the Z spec).
    group:
        Group the request addresses (``G``).
    mode:
        Requested :class:`~repro.core.modes.FCMMode` (``F``).
    host:
        Originating station (``X``).
    target_member:
        ``DM`` — the peer for direct contact.
    target_group:
        ``DG`` — the subgroup for group discussion.
    requested_at:
        Global time the server received the request.
    """

    request_id: int
    member: str
    group: str
    mode: FCMMode
    host: str = ""
    target_member: str | None = None
    target_group: str | None = None
    requested_at: float = 0.0


@dataclass(frozen=True)
class FloorGrant:
    """The arbitrator's answer to a request."""

    request: FloorRequest
    outcome: RequestOutcome
    granted_at: float = 0.0
    #: Members whose media became available because of this grant.
    media_enabled: tuple[str, ...] = ()
    #: Members whose media was suspended to make room (Media-Suspend).
    suspended: tuple[str, ...] = ()
    reason: str = ""

    @property
    def latency(self) -> float:
        """Request-to-decision latency (seconds of global time)."""
        return self.granted_at - self.request.requested_at


@dataclass
class FloorToken:
    """The equal-control token for one group.

    The token starts with the session chair.  Requests queue in FIFO
    order; :meth:`pass_to` hands the token to the next waiter (or a
    named member) — only the current holder may pass it.
    """

    group: str
    holder: str | None = None
    queue: list[str] = field(default_factory=list)
    hand_offs: int = 0

    def request(self, member: str) -> bool:
        """Ask for the token.

        Returns ``True`` if the member became the holder immediately
        (token was free), ``False`` if queued.  Re-requests by the
        current holder or an already-queued member are idempotent.
        """
        if self.holder == member:
            return True
        if self.holder is None:
            self.holder = member
            return True
        if member not in self.queue:
            self.queue.append(member)
        return False

    def pass_to(self, holder: str, successor: str | None = None) -> str | None:
        """Release the token from ``holder``.

        ``successor`` names the next holder (must be waiting); when
        omitted the head of the queue takes over.  Returns the new
        holder, or ``None`` when nobody waits.

        Raises
        ------
        FloorControlError
            If ``holder`` does not actually hold the token, or the named
            successor is not waiting.
        """
        if self.holder != holder:
            raise FloorControlError(
                f"member {holder!r} does not hold the floor of {self.group!r}"
            )
        if successor is not None:
            if successor not in self.queue:
                raise FloorControlError(
                    f"successor {successor!r} is not waiting for the floor"
                )
            self.queue.remove(successor)
            self.holder = successor
        elif self.queue:
            self.holder = self.queue.pop(0)
        else:
            self.holder = None
        if self.holder is not None:
            self.hand_offs += 1
        return self.holder

    def withdraw(self, member: str) -> None:
        """Remove a member from the wait queue (e.g. they disconnected)."""
        if member in self.queue:
            self.queue.remove(member)

    def waiting(self) -> list[str]:
        """The current wait queue (a copy), FIFO order."""
        return list(self.queue)


def check_floor_time(now: float) -> None:
    """Refuse a non-finite request or release time.

    A NaN or infinite ``now`` would reach the transcript and turn every
    latency folded from it into NaN, so the baseline policies of both
    engines call this before they change any state.

    Raises
    ------
    FloorControlError
        If ``now`` is NaN or infinite.
    """
    if not math.isfinite(now):
        raise FloorControlError(f"floor time must be finite, got {now!r}")


class _RequestFactory:
    """Internal: monotonically numbered requests."""

    def __init__(self) -> None:
        self._ids = itertools.count()

    def make(
        self,
        member: str,
        group: str,
        mode: FCMMode,
        host: str = "",
        target_member: str | None = None,
        target_group: str | None = None,
        requested_at: float = 0.0,
    ) -> FloorRequest:
        return FloorRequest(
            request_id=next(self._ids),
            member=member,
            group=group,
            mode=mode,
            host=host,
            target_member=target_member,
            target_group=target_group,
            requested_at=requested_at,
        )
