"""Tests for the exact commutative fleet fold and its histogram."""

import pickle
import random

from hypothesis import given, strategies as st

from repro.fabric import FleetMetrics, LatencyHistogram
from repro.metrics.histogram import EDGES


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.quantile(50) == 0.0
        assert h.mean() == 0.0

    def test_zero_latency_lands_in_underflow(self):
        h = LatencyHistogram()
        h.add(0.0)
        assert h.count == 1
        assert h.quantile(50) == 0.0  # immediate grants stay exact

    def test_quantile_is_monotone(self):
        h = LatencyHistogram()
        rng = random.Random(7)
        for _ in range(500):
            h.add(rng.uniform(0.001, 50.0))
        values = [h.quantile(p) for p in (1, 25, 50, 75, 95, 99, 100)]
        assert values == sorted(values)

    def test_quantile_within_one_bin_of_truth(self):
        h = LatencyHistogram()
        rng = random.Random(11)
        samples = sorted(rng.uniform(0.01, 10.0) for _ in range(2000))
        for value in samples:
            h.add(value)
        true_p95 = samples[int(0.95 * len(samples)) - 1]
        approx = h.quantile(95)
        # Geometric bins: the representative is within one bin width.
        assert 0.5 * true_p95 <= approx <= 2.0 * true_p95

    def test_merge_equals_bulk_add(self):
        rng = random.Random(3)
        values = [rng.uniform(0.0001, 500.0) for _ in range(300)]
        whole = LatencyHistogram()
        left, right = LatencyHistogram(), LatencyHistogram()
        for index, value in enumerate(values):
            whole.add(value)
            (left if index % 2 else right).add(value)
        left.merge(right)
        assert left == whole

    def test_overflow_and_underflow_clamped(self):
        h = LatencyHistogram()
        h.add(1e-9)   # below the first edge
        h.add(1e9)    # beyond the last edge
        assert h.count == 2
        assert h.quantile(100) == EDGES[-1]

    def test_pickle_round_trip(self):
        h = LatencyHistogram()
        for value in (0.0, 0.01, 1.0, 70.0):
            h.add(value)
        clone = pickle.loads(pickle.dumps(h))
        assert clone == h
        assert clone.count == 4


def _random_metrics(rng: random.Random) -> FleetMetrics:
    m = FleetMetrics()
    m.sessions = rng.randrange(5)
    m.events = rng.randrange(100)
    m.requests = rng.randrange(50)
    m.granted = rng.randrange(50)
    m.queued = rng.randrange(50)
    m.served = rng.randrange(50)
    m.posts = rng.randrange(20)
    m.evicted = rng.randrange(20)
    for _ in range(rng.randrange(10)):
        m.histogram.add(rng.uniform(0.0, 20.0))
    for _ in range(m.sessions):
        served = rng.randrange(30)
        m.fairness_n += 1
        m.fairness_total += served
        m.fairness_sumsq += served * served
    return m


class TestFleetMetricsFold:
    def test_merge_is_commutative_and_associative(self):
        rng = random.Random(42)
        parts = [_random_metrics(rng) for _ in range(6)]

        def fold(order):
            total = FleetMetrics()
            for index in order:
                total.merge(parts[index])
            return total

        forward = fold(range(6))
        backward = fold(reversed(range(6)))
        shuffled_order = list(range(6))
        rng.shuffle(shuffled_order)
        shuffled = fold(shuffled_order)
        assert forward == backward == shuffled
        assert forward.to_metrics() == shuffled.to_metrics()

    @given(st.lists(st.integers(min_value=0, max_value=100),
                    min_size=1, max_size=20))
    def test_jain_fairness_bounds(self, served_counts):
        m = FleetMetrics()
        for served in served_counts:
            m.fairness_n += 1
            m.fairness_total += served
            m.fairness_sumsq += served * served
        fairness = m.jain_fairness()
        if sum(served_counts) == 0:
            assert fairness == 1.0  # nobody served: perfectly equal
        else:
            assert 1.0 / len(served_counts) <= fairness <= 1.0 + 1e-12

    def test_jain_equal_shares_is_one(self):
        m = FleetMetrics()
        for _ in range(10):
            m.fairness_n += 1
            m.fairness_total += 7
            m.fairness_sumsq += 49
        assert m.jain_fairness() == 1.0

    def test_to_metrics_keys_are_floats(self):
        m = _random_metrics(random.Random(1))
        metrics = m.to_metrics()
        assert set(metrics) == {
            "sessions", "events", "requests", "granted", "queued",
            "denied", "aborted", "served", "posts", "evicted",
            "grant_p50", "grant_p95", "grant_mean", "fairness",
        }
        assert all(isinstance(value, float) for value in metrics.values())
