"""Tests for the fleet fabric: determinism, sharding, sweep and CLI glue."""

import inspect

import pytest

from repro.errors import ReproError
from repro.events import EventKind
from repro.experiments import (
    SweepSpec,
    load_document,
    named_spec,
    register_spec,
    run_sweep,
    runner_names,
    unregister_spec,
)
from repro.experiments.spec import Axis
from repro.fabric import (
    Fleet,
    FleetBuilder,
    FleetConfig,
    FleetMetrics,
    run_fleet,
    run_fleet_cell,
    run_shard,
    stream_workload,
    write_fleet_json,
)
from repro.fabric.session import make_session
from repro.workload.generator import WorkloadConfig, generate


def _config(**overrides) -> FleetConfig:
    values = dict(sessions=24, shards=3, members=5, scenario="lecture",
                  duration=10.0, request_rate=6.0, seed=5)
    values.update(overrides)
    return FleetConfig(**values)


class TestDeterminism:
    def test_serial_equals_sharded_workers(self):
        config = _config()
        serial = run_fleet(config, workers=1)
        sharded = run_fleet(config, workers=3)
        assert serial.metrics == sharded.metrics
        assert serial.to_metrics() == sharded.to_metrics()

    def test_shard_count_never_changes_the_fold(self):
        # Execution-layout invariance: 1, 2 and 4 shards fold to the
        # exact same aggregate for the same root seed.
        folds = [
            run_fleet(_config(shards=shards)).metrics
            for shards in (1, 2, 4)
        ]
        assert folds[0] == folds[1] == folds[2]

    def test_tick_size_never_changes_the_fold(self):
        folds = [
            run_fleet(_config(tick=tick)).metrics
            for tick in (0.25, 1.0, 5.0)
        ]
        assert folds[0] == folds[1] == folds[2]

    def test_ring_capacity_never_changes_the_fold(self):
        # The transcript bound is an execution knob: eviction may
        # differ, but every floor-control number must not.
        full = run_fleet(_config(ring_capacity=None)).metrics
        tight = run_fleet(_config(ring_capacity=16)).metrics
        assert tight.evicted >= 0
        for field in ("requests", "granted", "queued", "served",
                      "grant_p50", "grant_p95", "grant_mean"):
            assert getattr(tight, field) == getattr(full, field)

    def test_rerun_is_identical(self):
        config = _config()
        assert run_fleet(config).metrics == run_fleet(config).metrics

    def test_root_seed_changes_measurements(self):
        assert run_fleet(_config(seed=5)).metrics \
            != run_fleet(_config(seed=6)).metrics

    def test_worker_shards_match_serial_slices(self):
        config = _config(shards=4, sessions=20)
        serial = run_fleet(config).metrics
        refold = FleetMetrics()
        for shard in range(config.shards):
            refold.merge(run_shard(shard, config))
        assert refold == serial

    def test_persisted_json_is_byte_identical(self, tmp_path):
        config = _config()
        a = write_fleet_json(run_fleet(config, workers=1),
                             tmp_path / "a.json", include_timing=False)
        b = write_fleet_json(run_fleet(config, workers=3),
                             tmp_path / "b.json", include_timing=False)
        assert a.read_bytes() == b.read_bytes()


class TestStreamingSnapshot:
    def test_on_tick_streams_monotone_folds(self):
        seen = []

        def ticker(deadline, events, fleet):
            snap = fleet.snapshot()
            seen.append((deadline, events, snap.requests))

        result = Fleet(_config(), on_tick=ticker).run()
        deadlines = [d for d, _, _ in seen]
        assert deadlines == pytest.approx(list(_config().ticks()))
        events = [e for _, e, _ in seen]
        requests = [r for _, _, r in seen]
        assert events == sorted(events)
        assert requests == sorted(requests)
        # The last streamed snapshot is the final fold.
        assert requests[-1] == result.metrics.requests

    def test_fleet_close_is_idempotent(self):
        fleet = Fleet(_config(sessions=6, shards=2))
        fleet.run()
        fleet.close()
        fleet.close()


class TestEngines:
    def test_facade_engine_runs_full_sessions(self):
        config = _config(sessions=6, shards=2, engine="facade",
                         checks=("queue_consistent", "holder_is_member"))
        serial = run_fleet(config, workers=1)
        sharded = run_fleet(config, workers=2)
        assert serial.metrics == sharded.metrics
        assert serial.metrics.sessions == 6
        assert serial.metrics.granted > 0

    def test_facade_partition_blocks_progress(self):
        base = _config(sessions=4, shards=1, engine="facade", duration=12.0)
        cut = _config(sessions=4, shards=1, engine="facade", duration=12.0,
                      partition_start=2.0, partition_duration=8.0)
        assert run_fleet(cut).metrics.served < run_fleet(base).metrics.served

    def test_facade_rejects_baseline_policies(self):
        config = _config(sessions=2, shards=1, engine="facade", policy="fifo")
        with pytest.raises(ReproError):
            run_fleet(config)

    def test_batch_engine_supports_baseline_policies(self):
        metrics = run_fleet(_config(sessions=8, shards=2,
                                    policy="fifo")).metrics
        assert metrics.requests > 0

    def test_facade_free_access_grants_every_request(self):
        # Generated requests carry no explicit mode, so the session's
        # own policy arbitrates them.
        metrics = run_fleet(_config(
            sessions=3, shards=1, members=6, engine="facade",
            policy="free_access", scenario="lecture", request_rate=12.0,
            duration=30.0, seed=3,
        )).metrics
        assert metrics.requests > 0
        assert metrics.granted == metrics.requests
        assert metrics.queued == 0


class TestRingBound:
    def test_ring_mode_bounds_live_transcript(self):
        config = _config(sessions=1, shards=1, ring_capacity=8,
                         duration=30.0)
        session = make_session(0, config)
        session.advance(config.duration)
        log = session.policy.server.log
        assert len(log) <= 8
        assert log.evicted > 0
        assert session.summary().evicted == log.evicted
        session.close()

    @pytest.mark.parametrize("engine", ["batch", "compiled"])
    @pytest.mark.parametrize("policy", ["fifo", "free_for_all"])
    def test_baseline_fleets_fold_ring_evictions(self, policy, engine):
        config = _config(sessions=4, shards=1, members=4, scenario="seminar",
                         duration=30.0, seed=3, ring_capacity=8,
                         policy=policy, engine=engine)
        evicted = 0
        for index in range(config.sessions):
            session = make_session(index, config)
            session.advance(config.duration)
            evicted += session.policy.evicted
            session.close()
        assert evicted > 0
        assert run_fleet(config).metrics.evicted == evicted


class TestSweepIntegration:
    def test_fleet_runner_is_registered(self):
        assert "fleet" in runner_names()

    def test_fleet_scale_spec_registered(self):
        spec = named_spec("fleet_scale")
        assert spec.runner == "fleet"
        assert len(spec) == 4
        assert spec.base["shards"] == 4

    def test_reregistering_equal_spec_is_noop(self):
        spec = named_spec("fleet_scale")
        register_spec(spec)  # structural re-registration: fine
        with pytest.raises(ReproError):
            register_spec(SweepSpec(name="fleet_scale", axes=(),
                                    base={}, runner="fleet"))

    def test_fleet_cells_sweep_like_any_runner(self, tmp_path):
        spec = SweepSpec(
            name="fleet_mini",
            axes=(Axis("sessions", (8, 16)),),
            base={"members": 4, "duration": 6.0, "scenario": "lecture",
                  "request_rate": 6.0, "shards": 2},
            runner="fleet",
            root_seed=11,
        )
        result = run_sweep(spec)
        small, large = result.results
        assert small.metrics["sessions"] == 8.0
        assert large.metrics["sessions"] == 16.0
        assert large.metrics["requests"] > small.metrics["requests"]
        # Parallel sweep execution folds to the same cells.
        assert run_sweep(spec, workers=2).results == result.results

    def test_fleet_cell_rejects_unknown_parameters(self):
        spec = SweepSpec(name="bad", axes=(),
                         base={"sessioms": 8}, runner="fleet")
        (cell,) = spec.cells()
        with pytest.raises(ReproError, match="sessioms"):
            run_fleet_cell(cell)

    def test_persist_round_trip(self, tmp_path):
        result = run_fleet(_config(sessions=8, shards=2))
        path = write_fleet_json(result, tmp_path / "BENCH_fleet.json")
        document = load_document(path)
        (cell,) = document["cells"]
        assert cell["params"]["sessions"] == 8
        assert cell["seed"] == 5
        assert cell["metrics"]["requests"] == float(result.metrics.requests)
        assert "wall_seconds" in cell["metrics"]

    def teardown_method(self):
        unregister_spec("fleet_mini")
        unregister_spec("bad")


class TestLazyWorkloadStreams:
    @pytest.mark.parametrize("scenario", ["seminar", "storm"])
    def test_streams_reproduce_eager_generators_exactly(self, scenario):
        config = WorkloadConfig(members=6, duration=40.0, seed=9)
        assert list(stream_workload(scenario, config)) == \
            generate(scenario, config)

    def test_seminar_stream_stays_lazy(self):
        stream = stream_workload("seminar", WorkloadConfig(members=6, seed=9))
        assert inspect.isgenerator(stream)

    @pytest.mark.parametrize("scenario", ["lecture", "panel"])
    def test_lazy_scenarios_are_deterministic_and_ordered(self, scenario):
        config = WorkloadConfig(members=6, duration=40.0, seed=9,
                                request_rate=6.0)
        first = list(stream_workload(scenario, config))
        second = list(stream_workload(scenario, config))
        assert first == second
        assert first  # non-empty
        times = [event.time for event in first]
        assert times == sorted(times)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError):
            next(stream_workload("opera", WorkloadConfig()))


class TestBatchedArbitration:
    def test_batched_decisions_match_per_call(self):
        # The whole batching seam (FleetSession -> ArbitratedPolicy ->
        # FloorControlServer -> Arbitrator) must agree with per-call
        # arbitration decision for decision.
        from repro.api.policies import ArbitratedPolicy
        from repro.core.modes import FCMMode

        batched = ArbitratedPolicy(FCMMode.EQUAL_CONTROL)
        single = ArbitratedPolicy(FCMMode.EQUAL_CONTROL)
        members = [f"m{i}" for i in range(6)]
        outcomes = batched.request_batch([(m, 1.0) for m in members])
        expected = [single.request(m, now=1.0) for m in members]
        assert outcomes == expected
        assert batched.server.log.count(EventKind.REQUEST) == 6


class TestBuilderRun:
    def test_builder_run_returns_result(self):
        result = (FleetBuilder().sessions(6).shards(2).members(4)
                  .scenario("seminar").duration(6.0).seed(2).run(workers=2))
        assert result.metrics.sessions == 6
        assert result.wall_seconds > 0
        assert result.sessions_per_sec > 0
