"""Tests for the shared streaming metrics kernel (:mod:`repro.metrics`).

PR 8 collapsed four metric implementations into one
:class:`~repro.metrics.fold.MetricsFold`.  These tests pin the
contracts every consumer now rests on:

* the two Jain fairness entry points agree and share one set of
  empty/all-zero conventions;
* streaming fold == independent batch recompute == transcript_metrics
  on randomized transcripts (including ring-evicted buses and
  out-of-order timestamps);
* fold-mode shard merges are exact and order-invariant;
* both modes emit the same ``to_metrics`` schema, with integer tallies
  bit-identical across modes;
* the live session fold feeds the report and monitor correctly.
"""

import random

import pytest

from repro.api import SessionBuilder
from repro.errors import ReproError, SessionError
from repro.events.bus import EventBus
from repro.events.replay import transcript_metrics
from repro.events.types import EventKind, FloorEvent
from repro.metrics import (
    FleetMetrics,
    MetricsFold,
    jain_fairness,
    jain_fairness_from_moments,
    latency_summary,
    percentile,
)

MEMBERS = ["alice", "bob", "carol", "dave"]

INT_KEYS = (
    "events", "members", "requests", "granted", "queued", "denied",
    "token_passes", "served",
)


def random_transcript(seed, events=400, ring_evictions=False):
    """A seeded random floor transcript exercising every fold branch.

    Includes members who are granted without ever requesting (chair
    hand-offs), TOKEN_PASS events with and without recipients, kinds
    the fold ignores, and — when ``ring_evictions`` is unused — even
    out-of-order timestamps (transcripts merged from several clocks).
    """
    rng = random.Random(seed)
    out = []
    for member in MEMBERS:
        out.append(FloorEvent(0.0, EventKind.JOIN, member, "session"))
    t = 0.0
    for _ in range(events):
        t += rng.uniform(-0.01, 0.2)  # occasionally steps backwards
        member = rng.choice(MEMBERS + ["ghost"])
        roll = rng.random()
        if roll < 0.40:
            kind = EventKind.REQUEST
        elif roll < 0.70:
            kind = EventKind.GRANT
        elif roll < 0.80:
            out.append(FloorEvent(
                t, EventKind.TOKEN_PASS, "chair", "session",
                data={"to": member} if rng.random() < 0.8 else None,
            ))
            continue
        elif roll < 0.90:
            kind = rng.choice((EventKind.QUEUE, EventKind.DENY))
        else:
            kind = rng.choice(
                (EventKind.JOIN, EventKind.LEAVE, EventKind.SUSPEND)
            )
        out.append(FloorEvent(t, kind, member, "session"))
    return out


def batch_metrics(events):
    """Independent batch re-implementation of the fold's schema.

    Deliberately written the pre-kernel way — buffer everything, then
    compute — as the oracle the streaming fold must match exactly.
    """
    joined = set()
    counts = {}
    pending = {}
    samples = []
    kinds = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
        if event.kind is EventKind.JOIN:
            joined.add(event.member)
            counts.setdefault(event.member, 0)
        elif event.kind is EventKind.REQUEST:
            pending.setdefault(event.member, []).append(event.time)
        else:
            member = None
            if event.kind is EventKind.GRANT:
                member = event.member
            elif event.kind is EventKind.TOKEN_PASS:
                payload = event.payload()
                member = payload.to_member if payload is not None else None
            if member:
                queue = pending.get(member)
                if queue:
                    samples.append(event.time - queue.pop(0))
                counts[member] = counts.get(member, 0) + 1
    return {
        "events": float(len(events)),
        "members": float(len(joined)),
        "requests": float(kinds.get(EventKind.REQUEST, 0)),
        "granted": float(kinds.get(EventKind.GRANT, 0)),
        "queued": float(kinds.get(EventKind.QUEUE, 0)),
        "denied": float(kinds.get(EventKind.DENY, 0)),
        "token_passes": float(kinds.get(EventKind.TOKEN_PASS, 0)),
        "served": float(len(samples)),
        **latency_summary(samples),
        "fairness": jain_fairness(counts.values()),
    }


class TestJainConventions:
    """Satellite 1: one fairness implementation, pinned conventions."""

    def test_empty_shares_score_one(self):
        assert jain_fairness([]) == 1.0

    def test_all_zero_shares_score_one(self):
        assert jain_fairness([0, 0, 0]) == 1.0

    def test_moments_empty_conventions(self):
        assert jain_fairness_from_moments(0, 0, 0) == 1.0
        assert jain_fairness_from_moments(3, 0, 0) == 1.0

    def test_even_shares_score_one(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_taker_scores_one_over_n(self):
        assert jain_fairness([9, 0, 0]) == pytest.approx(1 / 3)

    def test_list_and_moments_forms_agree_exactly(self):
        rng = random.Random(11)
        for _ in range(50):
            shares = [rng.randrange(0, 40) for _ in range(rng.randrange(1, 9))]
            total = sum(shares)
            sumsq = sum(s * s for s in shares)
            assert jain_fairness(shares) == jain_fairness_from_moments(
                len(shares), total, sumsq
            )

    def test_fleet_metrics_delegates_to_moments_form(self):
        fleet = FleetMetrics()
        for share in (3, 1, 4):
            fleet.fairness_n += 1
            fleet.fairness_total += share
            fleet.fairness_sumsq += share * share
        assert fleet.jain_fairness() == jain_fairness([3, 1, 4])

    def test_percentile_conventions(self):
        assert percentile([], 95.0) == 0.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
        with pytest.raises(ValueError):
            percentile([1.0], 150.0)


class TestStreamingEqualsBatch:
    """Satellite 3: the fold matches a batch recompute on any stream."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fold_matches_batch_and_transcript_metrics(self, seed):
        events = random_transcript(seed)
        fold = MetricsFold(mode="exact")
        for event in events:
            fold.add(event)
        expected = batch_metrics(events)
        assert fold.to_metrics() == expected
        assert transcript_metrics(events) == expected

    @pytest.mark.parametrize("seed", (3, 17))
    def test_subscribed_fold_survives_ring_eviction(self, seed):
        # A fold subscribed before events fire sees everything, even
        # when the bounded bus has long evicted the early entries.
        events = random_transcript(seed)
        bus = EventBus(capacity=16)
        fold = MetricsFold(mode="exact")
        bus.subscribe(fold.add)
        for event in events:
            bus.publish(event)
        assert len(list(bus)) == 16
        assert fold.to_metrics() == batch_metrics(events)
        # Folding only the retained ring necessarily undercounts.
        assert bus.metrics().events == 16 < fold.events

    def test_seeded_roster_freezes_fairness_population(self):
        # Sweep-cell semantics: the chair is excluded by seeding the
        # roster, and later JOINs do not extend the population.
        fold = MetricsFold(members=["alice", "bob"])
        fold.add(FloorEvent(0.0, EventKind.JOIN, "teacher", "session"))
        fold.add(FloorEvent(1.0, EventKind.REQUEST, "alice", "session"))
        fold.add(FloorEvent(1.5, EventKind.GRANT, "alice", "session"))
        assert set(fold.counts) == {"alice", "bob"}
        assert fold.fairness() == jain_fairness([1, 0])
        # Unseeded (transcript semantics): JOINed members all count.
        grown = MetricsFold()
        for event in (
            FloorEvent(0.0, EventKind.JOIN, "teacher", "session"),
            FloorEvent(1.0, EventKind.REQUEST, "alice", "session"),
            FloorEvent(1.5, EventKind.GRANT, "alice", "session"),
        ):
            grown.add(event)
        assert set(grown.counts) == {"teacher", "alice"}

    def test_serve_without_pending_counts_share_but_no_sample(self):
        fold = MetricsFold()
        fold.serve("alice", 2.0)
        assert fold.counts == {"alice": 1}
        assert fold.served == 0
        assert fold.latencies == []


class TestFoldModeMerge:
    """Satellite 3: shard merges are exact in any order."""

    def drained_fold(self, seed):
        events = random_transcript(seed, events=200)
        fold = MetricsFold(mode="fold")
        for event in events:
            fold.add(event)
        # Drain outstanding requests so the shard is mergeable.
        for member, queue in list(fold._pending.items()):
            while queue:
                fold.add(FloorEvent(999.0, EventKind.GRANT, member, "session"))
        return fold

    def merged(self, order):
        total = MetricsFold(mode="fold")
        for seed in order:
            total.merge(self.drained_fold(seed))
        return total

    def test_merge_is_order_invariant(self):
        shards = [0, 1, 2, 3]
        baseline = self.merged(shards)
        for order in ([3, 1, 0, 2], [2, 3, 1, 0], list(reversed(shards))):
            other = self.merged(order)
            assert other.to_metrics() == baseline.to_metrics()
            assert other.histogram == baseline.histogram
            assert other.counts == baseline.counts

    def test_merge_equals_single_fold_over_concatenation(self):
        # Each shard stream is fully drained, so pairing never crosses
        # a shard boundary and concatenation folds to the same state.
        shards = [5, 6]
        merged = self.merged(shards)
        single = MetricsFold(mode="fold")
        for seed in shards:
            donor = self.drained_fold(seed)
            single.merge(donor)
        assert single.to_metrics() == merged.to_metrics()

    def test_exact_mode_refuses_merge(self):
        with pytest.raises(ReproError):
            MetricsFold(mode="exact").merge(MetricsFold(mode="exact"))
        with pytest.raises(ReproError):
            MetricsFold(mode="fold").merge(MetricsFold(mode="exact"))

    def test_merge_refuses_outstanding_requests(self):
        pending = MetricsFold(mode="fold")
        pending.add(FloorEvent(1.0, EventKind.REQUEST, "alice", "session"))
        with pytest.raises(ReproError):
            MetricsFold(mode="fold").merge(pending)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            MetricsFold(mode="windowed")

    def test_fold_mode_has_no_individual_latencies(self):
        fold = MetricsFold(mode="fold")
        with pytest.raises(ReproError):
            fold.latencies


class TestSharedSchema:
    """Tentpole: one ``to_metrics`` schema across both modes."""

    def test_modes_share_keys_and_integer_tallies(self):
        events = random_transcript(21)
        exact = MetricsFold(mode="exact")
        fold = MetricsFold(mode="fold")
        for event in events:
            exact.add(event)
            fold.add(event)
        exact_metrics, fold_metrics = exact.to_metrics(), fold.to_metrics()
        assert set(exact_metrics) == set(fold_metrics)
        # Integer tallies are bit-identical; only the latency summary
        # differs (binned vs retained samples).
        for key in INT_KEYS:
            assert exact_metrics[key] == fold_metrics[key], key
        assert fold_metrics["fairness"] == exact_metrics["fairness"]
        assert fold_metrics["grant_p95"] == pytest.approx(
            exact_metrics["grant_p95"], rel=0.15
        )

    def test_all_values_are_floats(self):
        fold = MetricsFold(mode="fold")
        assert all(
            isinstance(value, float) for value in fold.to_metrics().values()
        )


class TestLiveSessionFold:
    """The session's always-on fold feeds report and monitor."""

    def run_session(self, **kwargs):
        builder = (
            SessionBuilder()
            .participants("alice", "bob")
            .policy("equal_control")
        )
        for name, value in kwargs.items():
            builder = getattr(builder, name)(value)
        with builder.build() as session:
            for speaker in ("alice", "bob", "alice", "bob"):
                session.request_floor(speaker)
                session.run_for(0.5)
                session.release_floor(speaker)
                session.run_for(0.5)
            return session, session.report()

    def test_report_gains_latency_line(self):
        session, report = self.run_session()
        assert session.metrics.count(EventKind.JOIN) >= 2
        assert report.served >= 1
        # Request and grant land on the same server tick here, so the
        # latency samples are exact zeros — present, just instant.
        assert report.grant_p95 >= 0.0
        assert 0.0 < report.fairness <= 1.0
        assert "latency:" in report.render()
        assert "fairness" in report.render()

    def test_monitor_render_reports_fold_coverage(self):
        builder = (
            SessionBuilder()
            .participants("alice")
            .checks("queue_consistent", "holder_is_member")
        )
        with builder.build() as session:
            session.request_floor("alice")
            session.run_for(1.0)
            rendered = session.monitor.render()
        assert "covered:" in rendered
        assert "requests" in rendered

    def test_fold_mode_session_same_report_tallies(self):
        __, exact_report = self.run_session()
        __, fold_report = self.run_session(metrics_mode="fold")
        assert fold_report.served == exact_report.served
        assert fold_report.requests == exact_report.requests
        assert fold_report.fairness == exact_report.fairness

    def test_invalid_metrics_mode_rejected_by_config(self):
        with pytest.raises(SessionError):
            SessionBuilder().participants("a").metrics_mode("binned").config()

    def test_fold_outlives_ring_eviction(self):
        # All-time report numbers survive a tiny transcript ring.
        session, report = self.run_session(transcript_capacity=8)
        assert len(list(session.bus)) <= 8
        assert session.metrics.events > 8
        assert report.requests >= 1


class TestBusMetrics:
    def test_bus_metrics_folds_retained_events(self):
        bus = EventBus()
        events = random_transcript(7, events=50)
        for event in events:
            bus.publish(event)
        assert bus.metrics().to_metrics() == batch_metrics(events)

    def test_bus_metrics_accepts_mode_and_members(self):
        bus = EventBus()
        bus.publish(FloorEvent(1.0, EventKind.GRANT, "alice", "session"))
        fold = bus.metrics(members=["alice", "bob"], mode="fold")
        assert fold.mode == "fold"
        assert set(fold.counts) == {"alice", "bob"}
