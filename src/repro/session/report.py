"""Session reporting: one summary object per classroom run.

The paper's stated future work is "focus[ing] on the performance of
the system".  :func:`summarize` aggregates every layer's counters into
a :class:`SessionReport` — grant latencies, post acceptance, presence
uptime, clock-sync quality, network statistics — and renders it as the
text block the examples print at the end of a run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..events import EventKind
from .dmps import DMPSClient, DMPSServer

__all__ = ["SessionReport", "summarize"]


@dataclass(frozen=True)
class SessionReport:
    """Aggregated statistics of one DMPS session."""

    duration: float
    members: int
    # Floor control
    requests: int
    granted: int
    queued: int
    denied: int
    aborted: int
    token_passes: int
    suspensions: int
    resumptions: int
    # Whiteboard
    posts_accepted: int
    posts_rejected: int
    boards: int
    # Presence
    red_transitions: int
    currently_red: int
    # Network
    messages_sent: int
    messages_delivered: int
    loss_rate: float
    mean_latency: float
    # Clock sync
    synced_clients: int
    max_residual_skew: float
    # Runtime checks (populated when a SessionMonitor is attached)
    checked_invariants: int = 0
    check_violations: int = 0
    # Event-bus dispatch health: listeners that raised (exceptions are
    # isolated, so failures must surface here rather than crash a run).
    listener_errors: int = 0
    # Floor service quality, read from the session's live metrics fold
    # (:mod:`repro.metrics`) when one is attached: paired services,
    # grant-latency summary, and Jain fairness over member shares.
    served: int = 0
    grant_mean: float = 0.0
    grant_p50: float = 0.0
    grant_p95: float = 0.0
    fairness: float = 1.0
    # Causal-plane span count (populated when summarize() is handed a
    # tracer; see repro.trace).
    trace_spans: int = 0

    @property
    def acceptance_rate(self) -> float:
        total = self.posts_accepted + self.posts_rejected
        if total == 0:
            return 1.0
        return self.posts_accepted / total

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"session report ({self.duration:.1f}s, {self.members} members)",
            f"  floor:    {self.requests} requests -> {self.granted} granted, "
            f"{self.queued} queued, {self.denied} denied, {self.aborted} aborted; "
            f"{self.token_passes} token passes",
            f"  media:    {self.suspensions} suspensions, "
            f"{self.resumptions} resumptions",
            f"  boards:   {self.boards} boards, {self.posts_accepted} accepted / "
            f"{self.posts_rejected} rejected "
            f"({self.acceptance_rate * 100:.0f}% acceptance)",
            f"  presence: {self.red_transitions} red-light events, "
            f"{self.currently_red} currently red",
            f"  network:  {self.messages_sent} sent, "
            f"{self.messages_delivered} delivered, "
            f"loss {self.loss_rate * 100:.1f}%, "
            f"mean latency {self.mean_latency * 1000:.1f} ms",
            f"  clocks:   {self.synced_clients} synced, "
            f"max residual skew {self.max_residual_skew * 1000:.1f} ms",
        ]
        if self.served:
            lines.insert(
                2,
                f"  latency:  {self.served} served, grant p50 "
                f"{self.grant_p50 * 1000:.1f} ms / p95 "
                f"{self.grant_p95 * 1000:.1f} ms, "
                f"fairness {self.fairness:.3f}",
            )
        if self.checked_invariants:
            lines.append(
                f"  checks:   {self.checked_invariants} invariants monitored, "
                f"{self.check_violations} violations"
            )
        if self.listener_errors:
            lines.append(
                f"  events:   {self.listener_errors} listener errors "
                f"(dispatch isolated; see bus.listener_errors)"
            )
        if self.trace_spans:
            lines.append(
                f"  trace:    {self.trace_spans} causal spans "
                f"(deterministic plane; see repro.trace)"
            )
        return "\n".join(lines)


def summarize(
    server: DMPSServer,
    clients: list[DMPSClient] | None = None,
    monitor=None,
    metrics=None,
    tracer=None,
) -> SessionReport:
    """Build a :class:`SessionReport` from a server (and its clients).

    ``monitor`` is an optional attached
    :class:`~repro.check.monitor.SessionMonitor`; its invariant count
    and recorded violations become the report's ``checks`` line.
    ``metrics`` is the session's live
    :class:`~repro.metrics.fold.MetricsFold`: when given, event counts
    come from the fold's all-time state (correct even when a bounded
    transcript ring has evicted events) and the report gains the
    latency/fairness block; without it, counts fall back to scanning
    the retained log.
    ``tracer`` is an optional :class:`~repro.trace.causal.CausalTracer`
    (see :meth:`~repro.api.session.Session.report` with
    ``trace=True``); its span count becomes the report's trace line.
    """
    clients = clients or []
    log = server.control.log
    if metrics is not None:
        requests = metrics.count(EventKind.REQUEST)
        token_passes = metrics.count(EventKind.TOKEN_PASS)
        latency = metrics.latency_summary()
        quality = {
            "served": metrics.served,
            "grant_mean": latency["grant_mean"],
            "grant_p50": latency["grant_p50"],
            "grant_p95": latency["grant_p95"],
            "fairness": metrics.fairness(),
        }
    else:
        requests = log.count(EventKind.REQUEST)
        token_passes = log.count(EventKind.TOKEN_PASS)
        quality = {}
    stats = server.control.arbitrator.stats
    boards = server._boards
    accepted = sum(len(board) for board in boards.values())
    rejected = sum(board.rejected for board in boards.values())
    red_events = [
        transition
        for transition in server.presence.transitions
        if transition.light.value == "red"
    ]
    synced = [client for client in clients if client.sync.synchronized()]
    residuals = [abs(client.local_clock.skew()) for client in synced]
    return SessionReport(
        duration=server.clock.now(),
        members=len(server.members()),
        requests=requests,
        granted=stats.granted,
        queued=stats.queued,
        denied=stats.denied,
        aborted=stats.aborted,
        token_passes=token_passes,
        suspensions=server.control.arbitrator.suspension.suspensions,
        resumptions=server.control.arbitrator.suspension.resumptions,
        posts_accepted=accepted,
        posts_rejected=rejected,
        boards=len(boards),
        red_transitions=len(red_events),
        currently_red=len(server.presence.red_members()),
        messages_sent=server.network.stats.sent,
        messages_delivered=server.network.stats.delivered,
        loss_rate=server.network.stats.loss_rate,
        mean_latency=server.network.stats.mean_latency,
        synced_clients=len(synced),
        max_residual_skew=max(residuals, default=0.0),
        checked_invariants=len(monitor.names) if monitor is not None else 0,
        check_violations=len(monitor.violations) if monitor is not None else 0,
        listener_errors=log.listener_error_count,
        trace_spans=len(tracer.spans()) if tracer is not None else 0,
        **quality,
    )
