"""``FCM-Arbitrate`` — the floor control arbitration algorithm.

This is the paper's central algorithm (Section 3, given in Z notation).
Pseudo-structure of the spec, de-obfuscated from the OCR::

    FCM-Arbitrate(G, M, F, X, DG, DM) ≙
      if G ∉ Joined-Groups(M, X):            Abort-Arbitrate(G, X)
      if Resource-Available(G, F, X) >= a:   -- full service
          F = Free-Access       ⇒ ∀ M ∈ G • Media-Available(G, M, X)
          F = Equal-Control     ⇒ M ∈ G ∧ Priority >= 2 ⇒ Media-Available(G, M, X)
          F = Group-Discussion  ⇒ M ∈ DG ∧ Priority >= 2 ⇒ Media-Available(DG, M, X)
          F = Direct-Contact    ⇒ M ∈ G ∧ DM ∈ G ∧ Priority >= 2
                                   ⇒ Media-Available for M and DM
      if b <= Resource-Available(G, F, X) < a:
          Media-Suspend(G, M, X, DG, DM)     -- then grant as above
      if Resource-Available(G, F, X) < b:    Abort-Arbitrate(G, X)

Interpretation choices (documented per DESIGN.md):

* ``Priority >= 2`` is an *effective* priority: chairs carry base
  priority >= 2; an ordinary participant reaches 2 while holding the
  equal-control token (which realizes the prose "only one ... can
  deliver at the same time until the floor control token passed by the
  holder") or while chairing / being admitted into a subgroup.
* A member failing the priority guard under Equal Control is *queued*
  on the token rather than rejected outright — the prose describes
  token passing, so waiting is the intended behaviour.
* ``Media-Suspend`` uses the requester's priority as the cut-off and
  suspends lowest-priority media first (see
  :mod:`repro.core.suspension`).

All decisions are pure given the registry/ledger/token state, which is
what makes the arbitration property-testable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import FloorControlError, NotInGroupError
from .floor import FloorGrant, FloorRequest, FloorToken, RequestOutcome
from .groups import GroupRegistry
from .modes import FCMMode, MIN_CONTROLLED_PRIORITY
from .resources import ResourceLevel, ResourceModel, ResourceVector
from .suspension import MediaLedger, SuspensionManager, plan_suspension

__all__ = ["Arbitrator", "ArbitrationStats"]

#: Shared zero-demand vector for pure-signalling requests.  Demand
#: vectors are never mutated by arbitration, so every such request can
#: reuse one instance instead of allocating per call — measurable on
#: the fleet hot path (10k+ sessions arbitrating every tick).
_ZERO_DEMAND = ResourceVector.zeros()


@dataclass
class ArbitrationStats:
    """Counters for the E3/E4/E9 experiments."""

    granted: int = 0
    queued: int = 0
    denied: int = 0
    aborted: int = 0
    degraded_grants: int = 0

    @property
    def decisions(self) -> int:
        return self.granted + self.queued + self.denied + self.aborted


class Arbitrator:
    """Server-side implementation of ``FCM-Arbitrate``.

    Parameters
    ----------
    registry:
        Group/member state (``Joined-Groups``).
    resources:
        Station resource model with the ``a``/``b`` thresholds.
    """

    def __init__(self, registry: GroupRegistry, resources: ResourceModel) -> None:
        self.registry = registry
        self.resources = resources
        self.ledger = MediaLedger(resources)
        self.suspension = SuspensionManager(self.ledger)
        self.stats = ArbitrationStats()
        self._tokens: dict[str, FloorToken] = {}

    # ------------------------------------------------------------------
    # Token access
    # ------------------------------------------------------------------
    def token(self, group_id: str) -> FloorToken:
        """The equal-control token of a group (created on first use)."""
        if group_id not in self._tokens:
            self.registry.group(group_id)
            self._tokens[group_id] = FloorToken(group=group_id)
        return self._tokens[group_id]

    def peek_token(self, group_id: str) -> FloorToken | None:
        """The group's token if one exists, with *no* side effects —
        the read-only accessor observers (e.g. the session monitors of
        :mod:`repro.check.monitor`) use so that watching a run never
        changes its state."""
        return self._tokens.get(group_id)

    def effective_priority(self, member_name: str, group_id: str) -> int:
        """Base priority, elevated to the controlled-mode threshold for
        the token holder and for subgroup chairs."""
        member = self.registry.member(member_name)
        priority = member.priority
        token = self._tokens.get(group_id)
        if token is not None and token.holder == member_name:
            priority = max(priority, MIN_CONTROLLED_PRIORITY)
        group = self.registry.group(group_id)
        if group.chair == member_name:
            priority = max(priority, MIN_CONTROLLED_PRIORITY)
        return priority

    # ------------------------------------------------------------------
    # FCM-Arbitrate
    # ------------------------------------------------------------------
    def arbitrate(
        self,
        request: FloorRequest,
        demand: ResourceVector | None = None,
        now: float = 0.0,
    ) -> FloorGrant:
        """Decide one floor request.

        ``demand`` is the resource cost of the media the grant would
        activate (defaults to zero — pure signalling).  Returns a
        :class:`FloorGrant`; resource exhaustion yields outcome
        ``ABORTED`` (the Z spec's ``Abort-Arbitrate``) rather than an
        exception, because the server must keep serving other groups.
        """
        demand = demand if demand is not None else _ZERO_DEMAND
        # Guard 1: G ∈ Joined-Groups(M, X).
        try:
            self.registry.require_membership(request.group, request.member)
        except (NotInGroupError, FloorControlError) as error:
            self.stats.denied += 1
            return FloorGrant(
                request=request,
                outcome=RequestOutcome.DENIED,
                granted_at=now,
                reason=str(error),
            )
        # Guard 2: resource classification against a and b.  The level
        # is judged on *current* availability (the Z spec's
        # Resource-Available); the new demand is then either covered by
        # the headroom or recovered through Media-Suspend.
        level = self.resources.level()
        if level is ResourceLevel.EXHAUSTED:
            self.stats.aborted += 1
            return FloorGrant(
                request=request,
                outcome=RequestOutcome.ABORTED,
                granted_at=now,
                reason="resources below minimal threshold b",
            )
        suspended: tuple[str, ...] = ()
        needs_room = self.resources.headroom_above_minimal(demand) < 0
        if level is ResourceLevel.DEGRADED or needs_room:
            suspended = tuple(self._media_suspend(request, demand))
            # Re-classify: if suspension could not recover past b, abort.
            if self.resources.headroom_above_minimal(demand) < 0:
                self.stats.aborted += 1
                return FloorGrant(
                    request=request,
                    outcome=RequestOutcome.ABORTED,
                    granted_at=now,
                    suspended=suspended,
                    reason="degraded and no suspendable lower-priority media",
                )
        # Guard 3: per-mode admission.
        grant = self._admit_by_mode(request, now, suspended)
        if grant.outcome is RequestOutcome.GRANTED:
            self.stats.granted += 1
            if level is ResourceLevel.DEGRADED:
                self.stats.degraded_grants += 1
        elif grant.outcome is RequestOutcome.QUEUED:
            self.stats.queued += 1
        else:
            self.stats.denied += 1
        return grant

    def arbitrate_batch(
        self, requests: list[FloorRequest], now: float = 0.0
    ) -> list[FloorGrant]:
        """Decide a tick's worth of requests in arrival order.

        The fleet scheduler collects every request due in one tick and
        submits them together; decisions are identical to calling
        :meth:`arbitrate` once per request (same order, same state
        transitions), but the batch shape keeps the hot loop free of
        per-call framing.
        """
        return [self.arbitrate(request, now=now) for request in requests]

    # ------------------------------------------------------------------
    # Mode rules
    # ------------------------------------------------------------------
    def _admit_by_mode(
        self, request: FloorRequest, now: float, suspended: tuple[str, ...]
    ) -> FloorGrant:
        mode = request.mode
        if mode is FCMMode.FREE_ACCESS:
            # ∀ M ∈ G • Media-Available — everyone may send.
            return self._granted(request, now, (request.member,), suspended)
        if mode is FCMMode.EQUAL_CONTROL:
            return self._admit_equal_control(request, now, suspended)
        if mode is FCMMode.GROUP_DISCUSSION:
            return self._admit_group_discussion(request, now, suspended)
        return self._admit_direct_contact(request, now, suspended)

    def _admit_equal_control(
        self, request: FloorRequest, now: float, suspended: tuple[str, ...]
    ) -> FloorGrant:
        token = self.token(request.group)
        became_holder = token.request(request.member)
        if not became_holder:
            return FloorGrant(
                request=request,
                outcome=RequestOutcome.QUEUED,
                granted_at=now,
                suspended=suspended,
                reason=f"floor held by {token.holder!r}",
            )
        # Holder passes the Priority >= 2 guard by construction.
        if self.effective_priority(request.member, request.group) < MIN_CONTROLLED_PRIORITY:
            raise FloorControlError(
                "internal: token holder below controlled-mode priority"
            )  # pragma: no cover - invariant
        return self._granted(request, now, (request.member,), suspended)

    def _admit_group_discussion(
        self, request: FloorRequest, now: float, suspended: tuple[str, ...]
    ) -> FloorGrant:
        subgroup_id = request.target_group
        if subgroup_id is None:
            return FloorGrant(
                request=request,
                outcome=RequestOutcome.DENIED,
                granted_at=now,
                suspended=suspended,
                reason="group discussion requires a target subgroup",
            )
        try:
            subgroup = self.registry.group(subgroup_id)
            self.registry.require_membership(subgroup_id, request.member)
        except (NotInGroupError, FloorControlError) as error:
            return FloorGrant(
                request=request,
                outcome=RequestOutcome.DENIED,
                granted_at=now,
                suspended=suspended,
                reason=str(error),
            )
        if subgroup.parent != request.group:
            return FloorGrant(
                request=request,
                outcome=RequestOutcome.DENIED,
                granted_at=now,
                suspended=suspended,
                reason=f"subgroup {subgroup_id!r} does not belong to {request.group!r}",
            )
        # Within the subgroup everyone accepted may send together; the
        # Priority >= 2 guard is met through subgroup admission (the
        # chair invited them, elevating their standing in DG).
        return self._granted(request, now, (request.member,), suspended)

    def _admit_direct_contact(
        self, request: FloorRequest, now: float, suspended: tuple[str, ...]
    ) -> FloorGrant:
        peer = request.target_member
        if peer is None:
            return FloorGrant(
                request=request,
                outcome=RequestOutcome.DENIED,
                granted_at=now,
                suspended=suspended,
                reason="direct contact requires a target member",
            )
        try:
            self.registry.require_membership(request.group, peer)
        except (NotInGroupError, FloorControlError) as error:
            return FloorGrant(
                request=request,
                outcome=RequestOutcome.DENIED,
                granted_at=now,
                suspended=suspended,
                reason=str(error),
            )
        if peer == request.member:
            return FloorGrant(
                request=request,
                outcome=RequestOutcome.DENIED,
                granted_at=now,
                suspended=suspended,
                reason="direct contact requires two distinct members",
            )
        # M ∈ G ∧ DM ∈ G ⇒ media available for both endpoints.
        return self._granted(request, now, (request.member, peer), suspended)

    # ------------------------------------------------------------------
    # Media-Suspend hook
    # ------------------------------------------------------------------
    def _media_suspend(self, request: FloorRequest, demand: ResourceVector) -> list[str]:
        requester_priority = self.effective_priority(request.member, request.group)
        shortfall = -self.resources.headroom_above_minimal(demand)
        victims = plan_suspension(
            self.ledger.active(request.group),
            requester_priority,
            shortfall,
        )
        return self.suspension.suspend(request.group, victims)

    def _granted(
        self,
        request: FloorRequest,
        now: float,
        media_enabled: tuple[str, ...],
        suspended: tuple[str, ...],
    ) -> FloorGrant:
        return FloorGrant(
            request=request,
            outcome=RequestOutcome.GRANTED,
            granted_at=now,
            media_enabled=media_enabled,
            suspended=suspended,
        )

    # ------------------------------------------------------------------
    # Token life cycle helpers the server exposes
    # ------------------------------------------------------------------
    def release_floor(self, group_id: str, member: str, successor: str | None = None) -> str | None:
        """Pass the equal-control token; returns the new holder."""
        return self.token(group_id).pass_to(member, successor)

    def recover_resources(self, group_id: str) -> list[str]:
        """Resume suspended media after resources recover (E4)."""
        return self.suspension.resume_where_possible(group_id, self.resources)
