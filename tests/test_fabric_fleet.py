"""Tests for the fleet fabric: determinism, sharding, sweep and CLI glue."""

import dataclasses
import heapq
import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.modes import FCMMode
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
from repro.experiments.spec import Axis, derive_seed
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
from repro.fabric.workload import stream_rows
from repro.trace import dumps_trace
from repro.workload.generator import (
    RequestEvent,
    WorkloadConfig,
    generate,
    member_names,
)


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


# ----------------------------------------------------------------------
# The lazy lecture and panel streams as they were before rows:
# RequestEvents merged by heapq.merge on time.  Kept as the oracle.
# ----------------------------------------------------------------------
def _stream_rng(config, stream):
    return random.Random(derive_seed(config.seed, "fleet-workload", {"stream": stream}))


def _merge(*streams):
    return heapq.merge(*streams, key=lambda event: event.time)


def _lecture(config):
    def teacher_posts():
        rng = _stream_rng(config, "teacher")
        t = 1.0
        while t < config.duration:
            yield RequestEvent(time=t, member="teacher", action="post",
                               mode=FCMMode.EQUAL_CONTROL,
                               content=f"slide@{t:.0f}")
            t += rng.uniform(2.0, 6.0)

    def student(name):
        rng = _stream_rng(config, name)
        per_member_rate = config.request_rate / 60.0
        t = rng.expovariate(per_member_rate) if per_member_rate > 0 else config.duration
        while t < config.duration:
            yield RequestEvent(time=t, member=name, action="request",
                               mode=FCMMode.EQUAL_CONTROL)
            hold = rng.expovariate(1.0 / config.mean_hold)
            release_at = min(t + hold, config.duration)
            yield RequestEvent(time=release_at, member=name, action="release",
                               mode=FCMMode.EQUAL_CONTROL)
            t = release_at + rng.expovariate(per_member_rate)

    streams = [teacher_posts()]
    streams += [student(name) for name in member_names(config.members)]
    return _merge(*streams)


def _panel(config):
    names = member_names(config.members)
    panel = names[: max(2, config.members // 4)]
    audience = names[len(panel):]

    def panelist(name):
        rng = _stream_rng(config, name)
        t = rng.uniform(0.5, 3.0)
        while t < config.duration:
            yield RequestEvent(time=t, member=name, action="post",
                               mode=FCMMode.FREE_ACCESS, content="panel remark")
            t += rng.uniform(1.0, 5.0)

    def listener(name):
        rng = _stream_rng(config, name)
        t = rng.uniform(5.0, config.duration)
        if t < config.duration:
            yield RequestEvent(time=t, member=name, action="request",
                               mode=FCMMode.EQUAL_CONTROL)
            yield RequestEvent(
                time=min(t + config.mean_hold, config.duration),
                member=name,
                action="release",
                mode=FCMMode.EQUAL_CONTROL,
            )

    streams = [panelist(name) for name in panel]
    streams += [listener(name) for name in audience]
    return _merge(*streams)


ORACLES = {"lecture": _lecture, "panel": _panel}


def _rows(events):
    return [(event.time, event.member, event.action) for event in events]


@st.composite
def stream_configs(draw):
    """Short durations with long holds clamp many releases to
    ``duration``, so rows tie across streams."""
    return WorkloadConfig(
        members=draw(st.integers(1, 12)),
        duration=draw(st.sampled_from((3.0, 6.0, 20.0, 60.0))),
        seed=draw(st.integers(0, 10_000)),
        mean_hold=draw(st.sampled_from((0.5, 4.0, 30.0))),
        request_rate=draw(st.sampled_from((0.0, 2.0, 12.0, 60.0))),
    )


class TestRowStreamsMatchEventOracle:
    @pytest.mark.parametrize("scenario", ["lecture", "panel"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=stream_configs())
    def test_streams_match_oracle(self, scenario, config):
        expected = list(ORACLES[scenario](config))
        assert list(stream_workload(scenario, config)) == expected
        assert list(stream_rows(scenario, config)) == _rows(expected)

    @pytest.mark.parametrize("scenario", ["lecture", "panel"])
    def test_clamped_releases_tie_across_streams(self, scenario):
        config = WorkloadConfig(members=12, duration=6.0, seed=3,
                                mean_hold=30.0, request_rate=60.0)
        expected = list(ORACLES[scenario](config))
        clamped = {event.member for event in expected
                   if event.action == "release" and event.time == config.duration}
        assert len(clamped) > 2  # non-vacuous: streams really tie
        assert list(stream_workload(scenario, config)) == expected
        assert list(stream_rows(scenario, config)) == _rows(expected)

    @pytest.mark.parametrize("scenario", ["seminar", "storm"])
    def test_eager_scenario_rows_match_generate(self, scenario):
        config = WorkloadConfig(members=6, duration=40.0, seed=9)
        assert list(stream_rows(scenario, config)) == _rows(generate(scenario, config))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError):
            stream_rows("opera", WorkloadConfig())


class TestSessionMajorOrder:
    """Session-major shards (the default), tick-major shards (``on_tick``)
    and worker shards give the same fold and the same spans."""

    #: ``(tick, ring capacity)`` pairs: ticks that do not divide the
    #: duration, rings from one event up.  Ticks start at 1.0, where a
    #: facade session's warm-up leaves its clock.
    LAYOUTS = ((1.3, 1), (2.9, 2), (1.7, 7), (4.1, 64), (11.0, None))

    @pytest.mark.parametrize("engine", ["batch", "compiled", "facade"])
    @pytest.mark.parametrize("scenario", ["lecture", "seminar", "panel", "storm"])
    def test_orders_agree(self, engine, scenario):
        spans = 0
        for tick, ring in self.LAYOUTS:
            config = _config(sessions=5, shards=3, members=4, duration=9.0,
                             request_rate=12.0, scenario=scenario,
                             engine=engine, tick=tick, ring_capacity=ring)
            snapshots = []

            def on_tick(deadline, events, fleet):
                snapshots.append(fleet.snapshot().requests)

            runs = [
                Fleet(config, trace=True).run(),
                Fleet(config, on_tick=on_tick, trace=True).run(),
                run_fleet(config, workers=2, trace=True),
            ]
            assert len(snapshots) == len(list(config.ticks()))
            assert snapshots[-1] == runs[0].metrics.requests
            folds = {repr(run.to_metrics()) for run in runs}
            traces = {dumps_trace(run.spans, meta={"seed": config.seed})
                      for run in runs}
            assert len(folds) == 1 and len(traces) == 1
            spans += len(runs[0].spans)
        assert spans  # non-vacuous: the fleets really spanned


class TestFacadeSubSecondTicks:
    """A facade session's clock starts past its 1.0 s join warm-up, so
    the first ticks of a sub-second fleet lie behind it: they run
    nothing, and the fleet folds and traces as with whole ticks."""

    @pytest.mark.parametrize("scenario", ["lecture", "seminar"])
    def test_sub_second_ticks_match_whole_ticks(self, scenario):
        base = _config(sessions=3, shards=2, members=4, duration=6.0,
                       request_rate=12.0, scenario=scenario,
                       engine="facade", tick=1.0)
        expected = Fleet(base, trace=True).run()
        expected_trace = dumps_trace(expected.spans, meta={"seed": base.seed})
        assert expected.spans
        for tick in (0.25, 0.5, 0.9):
            config = dataclasses.replace(base, tick=tick)
            for run in (Fleet(config, trace=True).run(),
                        run_fleet(config, workers=2, trace=True)):
                assert repr(run.to_metrics()) == repr(expected.to_metrics())
                assert dumps_trace(
                    run.spans, meta={"seed": config.seed}
                ) == expected_trace

    def test_deadline_at_now_runs_the_events_due_then(self):
        session = make_session(0, _config(sessions=1, engine="facade"))
        now = session.session.now()
        ran = []
        session.session.clock.call_at(now, ran.append, now)
        assert session.advance(now - 0.5) == 0
        assert ran == []
        assert session.advance(now) >= 1
        assert ran == [now]


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
