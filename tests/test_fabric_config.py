"""Tests for fleet configuration: validation, seeds, shards, ticks."""

import math

import pytest

from repro.errors import ReproError
from repro.fabric import FleetBuilder, FleetConfig


class TestValidation:
    def test_defaults_validate(self):
        FleetConfig().validate()

    @pytest.mark.parametrize("field, value", [
        ("sessions", 0),
        ("shards", 0),
        ("shards", 7),  # more shards than needed for 5 sessions? fine —
        ("members", 0),
        ("duration", 0.0),
        ("tick", 0.0),
        ("tick", -1.0),
        ("ring_capacity", 0),
        ("scenario", "opera"),
        ("engine", "warp"),
        ("policy", "unknown_policy"),
        ("partition_duration", -1.0),
    ])
    def test_bad_values_rejected(self, field, value):
        if field == "shards" and value == 7:
            # shards may not exceed sessions
            config = FleetConfig(sessions=5, shards=7)
        else:
            config = FleetConfig(**{field: value})
        with pytest.raises(ReproError):
            config.validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "duration", "tick", "mean_hold", "request_rate", "latency",
        "partition_start", "partition_duration",
    ])
    def test_non_finite_numbers_rejected(self, field, value):
        # An infinite duration would tick forever and a NaN rate would
        # run a fleet that never requests; both are refused up front.
        with pytest.raises(ReproError, match=f"{field} must be finite"):
            FleetConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field, value, message", [
        ("mean_hold", 0.0, "mean_hold must be positive, got 0.0"),
        ("mean_hold", -2.0, "mean_hold must be positive, got -2.0"),
        ("request_rate", -1.0, "request_rate must be >= 0, got -1.0"),
    ])
    def test_rates_a_workload_cannot_run_rejected(self, field, value, message):
        # A zero hold divided by zero in the stream; a negative one
        # moved time backwards; a negative rate ran an empty fleet.
        with pytest.raises(ReproError) as raised:
            FleetConfig(**{field: value}).validate()
        assert str(raised.value) == message

    def test_zero_request_rate_accepted(self):
        FleetConfig(request_rate=0.0).validate()

    def test_partition_needs_start(self):
        with pytest.raises(ReproError):
            FleetConfig(partition_start=None, partition_duration=2.0,
                        sessions=4).validate()


class TestSeeds:
    def test_session_seeds_distinct_and_stable(self):
        config = FleetConfig(sessions=50, seed=7)
        seeds = [config.session_seed(i) for i in range(50)]
        assert len(set(seeds)) == 50
        assert seeds == [config.session_seed(i) for i in range(50)]

    def test_root_seed_changes_session_seeds(self):
        a = FleetConfig(sessions=8, seed=1)
        b = FleetConfig(sessions=8, seed=2)
        assert [a.session_seed(i) for i in range(8)] != \
               [b.session_seed(i) for i in range(8)]

    def test_execution_params_never_touch_seeds(self):
        # Shards, tick, ring capacity and engine are *execution* knobs:
        # changing them must not change what any session simulates.
        base = FleetConfig(sessions=16, seed=3)
        for variant in (
            FleetConfig(sessions=16, seed=3, shards=4),
            FleetConfig(sessions=16, seed=3, tick=0.25),
            FleetConfig(sessions=16, seed=3, ring_capacity=32),
            FleetConfig(sessions=16, seed=3, engine="facade"),
        ):
            assert [variant.session_seed(i) for i in range(16)] == \
                   [base.session_seed(i) for i in range(16)]

    def test_identity_params_do_touch_seeds(self):
        base = FleetConfig(sessions=16, seed=3)
        assert FleetConfig(sessions=16, seed=3, members=8).session_seed(0) \
            != base.session_seed(0)


class TestSharding:
    def test_shard_of_partitions_every_session(self):
        config = FleetConfig(sessions=23, shards=4)
        owned = [list(config.shard_sessions(k)) for k in range(4)]
        flat = sorted(index for shard in owned for index in shard)
        assert flat == list(range(23))
        for k, sessions in enumerate(owned):
            assert all(config.shard_of(i) == k for i in sessions)

    def test_assignment_stable_under_fleet_growth(self):
        # Growing the fleet must never move an existing session.
        small = FleetConfig(sessions=20, shards=4)
        grown = FleetConfig(sessions=40, shards=4)
        for index in range(20):
            assert small.shard_of(index) == grown.shard_of(index)

    def test_ticks_end_exactly_at_duration(self):
        config = FleetConfig(sessions=4, duration=5.0, tick=1.5)
        deadlines = list(config.ticks())
        assert deadlines == pytest.approx([1.5, 3.0, 4.5, 5.0])
        assert deadlines[-1] == config.duration

    def test_ticks_with_exact_multiple(self):
        config = FleetConfig(sessions=4, duration=4.0, tick=2.0)
        assert list(config.ticks()) == pytest.approx([2.0, 4.0])


class TestBuilder:
    def test_builder_round_trip(self):
        config = (
            FleetBuilder()
            .sessions(64).shards(8).members(6)
            .policy("free_access").scenario("panel")
            .duration(12.0).tick(0.5).ring_capacity(64)
            .workload(mean_hold=2.0, request_rate=3.0)
            .engine("facade").seed(99).latency(0.02)
            .partition(4.0, 2.0).checks("queue_consistent")
            .config()
        )
        assert config.sessions == 64 and config.shards == 8
        assert config.policy == "free_access"
        assert config.scenario == "panel"
        assert config.ring_capacity == 64
        assert config.mean_hold == 2.0 and config.request_rate == 3.0
        assert config.engine == "facade" and config.seed == 99
        assert config.partition_start == 4.0
        assert config.checks == ("queue_consistent",)

    def test_builder_validates_on_config(self):
        with pytest.raises(ReproError):
            FleetBuilder().sessions(0).config()
