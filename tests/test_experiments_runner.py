"""Tests for sweep execution: runners, parallelism, determinism."""

import math

import pytest

from repro.errors import ReproError
from repro.experiments import (
    Axis,
    SweepSpec,
    jain_fairness,
    percentile,
    register_runner,
    resolve_runner,
    run_sweep,
    runner_names,
    unregister_runner,
)

#: A small but non-trivial grid mixing session and policy-driven cells.
GRID = SweepSpec(
    name="determinism",
    axes=(
        Axis("policy", ("equal_control", "fifo")),
        Axis("participants", (2, 3)),
    ),
    base={"scenario": "seminar", "duration": 12.0},
    root_seed=11,
)


def echo_runner(cell):
    """Trivial runner used to observe what the engine feeds cells."""
    return {"seed_mod": cell.seed % 97, "index": cell.index}


class TestMetricsHelpers:
    def test_percentile_nearest_rank(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 95.0) == 4.0
        assert percentile([], 50.0) == 0.0

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            percentile([1.0], 150.0)

    def test_jain_fairness(self):
        assert jain_fairness([1, 1, 1, 1]) == pytest.approx(1.0)
        assert jain_fairness([4, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0, 0]) == 1.0


class TestRunnerRegistry:
    def test_builtins_registered(self):
        assert {"session", "policy"} <= set(runner_names())

    def test_unknown_runner_rejected(self):
        with pytest.raises(ReproError):
            resolve_runner("nope")

    def test_register_and_unregister(self):
        register_runner("echo", echo_runner)
        try:
            assert resolve_runner("echo") is echo_runner
            # Re-registering the same callable is a no-op (spawn-mode
            # workers re-import registration modules)...
            register_runner("echo", echo_runner)
            assert resolve_runner("echo") is echo_runner
            # ...but a conflicting registration still raises.
            with pytest.raises(ReproError):
                register_runner("echo", lambda cell: {})
        finally:
            unregister_runner("echo")
        assert "echo" not in runner_names()

    def test_custom_runner_drives_a_sweep(self):
        register_runner("echo", echo_runner)
        try:
            spec = SweepSpec(
                name="echoes", axes=(Axis("x", (1, 2)),), runner="echo"
            )
            result = run_sweep(spec)
            assert [r.metrics["seed_mod"] for r in result.results] == [
                cell.seed % 97 for cell in spec.cells()
            ]
        finally:
            unregister_runner("echo")

    def test_non_numeric_metrics_rejected(self):
        register_runner("bad", lambda cell: {"oops": "text"})
        try:
            with pytest.raises(ReproError):
                run_sweep(SweepSpec(name="bad", runner="bad"))
        finally:
            unregister_runner("bad")


class TestSessionRunner:
    def test_session_cells_measure_the_network(self):
        spec = SweepSpec(
            name="session",
            base={"participants": 3, "scenario": "storm", "duration": 4.0,
                  "policy": "equal_control"},
        )
        metrics = run_sweep(spec).results[0].metrics
        assert metrics["requests"] == 3.0
        assert metrics["granted"] == 1.0
        assert metrics["queued"] == 2.0
        assert metrics["messages_sent"] > 0.0

    def test_baseline_policies_dispatch_without_a_server(self):
        spec = SweepSpec(
            name="baseline",
            base={"participants": 3, "scenario": "storm", "duration": 4.0,
                  "policy": "free_for_all"},
        )
        metrics = run_sweep(spec).results[0].metrics
        assert metrics["granted"] == 3.0
        assert metrics["messages_sent"] == 0.0
        assert metrics["fairness"] == pytest.approx(1.0)

    def test_seminar_rotation_yields_latencies_and_fairness(self):
        spec = SweepSpec(
            name="seminar",
            base={"participants": 3, "scenario": "seminar", "duration": 30.0,
                  "policy": "equal_control"},
        )
        metrics = run_sweep(spec).results[0].metrics
        assert metrics["served"] > 1.0
        assert 0.0 < metrics["fairness"] <= 1.0
        assert metrics["grant_p95"] >= metrics["grant_p50"] >= 0.0

    def test_lossy_links_register_loss(self):
        spec = SweepSpec(
            name="lossy",
            base={"participants": 4, "scenario": "seminar", "duration": 20.0,
                  "policy": "equal_control", "loss": 0.2},
        )
        metrics = run_sweep(spec).results[0].metrics
        assert metrics["loss_rate"] > 0.0

    def test_burst_loss_cells_degrade_with_burstiness(self):
        """The ``burst_loss`` knob reaches the session's links: a cell
        with a hot bad state loses traffic a burst-free twin keeps."""
        spec = SweepSpec(
            name="burst",
            axes=(Axis("burst_loss", (0.0, 1.0)),),
            base={"participants": 4, "scenario": "seminar", "duration": 15.0,
                  "policy": "equal_control", "burst_mean_good": 1.0,
                  "burst_mean_bad": 1.0},
        )
        result = run_sweep(spec)
        calm = result.cell("burst_loss=0.0").metrics
        bursty = result.cell("burst_loss=1.0").metrics
        assert calm["loss_rate"] == 0.0
        assert bursty["loss_rate"] > 0.0

    def test_burst_good_state_keeps_the_static_loss_floor(self):
        """Regression: the Gilbert–Elliott good state used to reset
        loss_probability to 0.0, so adding a burst knob *reduced* loss
        below the cell's static ``loss`` — a mislabeled BENCH cell."""
        base = {"participants": 4, "scenario": "seminar", "duration": 15.0,
                "policy": "equal_control", "loss": 0.3}
        plain = run_sweep(SweepSpec(name="plain", base=dict(base)))
        bursty = run_sweep(
            SweepSpec(
                name="bursty",
                base={**base, "burst_loss": 0.9, "burst_mean_good": 1.0,
                      "burst_mean_bad": 1.0},
            )
        )
        plain_loss = plain.results[0].metrics["loss_rate"]
        bursty_loss = bursty.results[0].metrics["loss_rate"]
        assert plain_loss > 0.2
        assert bursty_loss > plain_loss  # bursts only ever add loss

    def test_partition_cells_record_blocked_messages(self):
        spec = SweepSpec(
            name="cut",
            base={"participants": 4, "scenario": "seminar", "duration": 12.0,
                  "policy": "equal_control", "partition_start": 4.0,
                  "partition_duration": 3.0},
        )
        metrics = run_sweep(spec).results[0].metrics
        assert metrics["blocked"] > 0.0
        assert metrics["loss_rate"] > 0.0

    def test_ramp_cells_raise_measured_latency(self):
        base = {"participants": 3, "scenario": "seminar", "duration": 12.0,
                "policy": "equal_control", "latency": 0.01}
        flat = run_sweep(SweepSpec(name="flat", base=dict(base)))
        ramped = run_sweep(
            SweepSpec(
                name="ramped",
                base={**base, "ramp_to_latency": 0.5, "ramp_start": 1.0,
                      "ramp_end": 6.0},
            )
        )
        assert (
            ramped.results[0].metrics["net_latency"]
            > flat.results[0].metrics["net_latency"] * 5
        )

    def test_invalid_participants_rejected(self):
        spec = SweepSpec(name="bad", base={"participants": 0})
        with pytest.raises(ReproError):
            run_sweep(spec)

    def test_unknown_parameters_rejected_not_ignored(self):
        """A typo'd parameter must fail loudly, never persist a BENCH
        cell labeled with settings that were silently dropped."""
        spec = SweepSpec(name="typo", base={"particpants": 32})
        with pytest.raises(ReproError, match="particpants"):
            run_sweep(spec)
        baseline = SweepSpec(
            name="typo2", base={"policy": "fifo", "particpants": 32}
        )
        with pytest.raises(ReproError, match="particpants"):
            run_sweep(baseline)

    def test_non_numeric_parameter_value_rejected(self):
        spec = SweepSpec(name="bad", base={"duration": "abc"})
        with pytest.raises(ReproError, match="duration"):
            run_sweep(spec)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_value_rejected(self, value):
        spec = SweepSpec(
            name="bad",
            base={"policy": "fifo", "duration": 3.0, "request_rate": value},
        )
        with pytest.raises(
            ReproError, match="cell 'default': parameter 'request_rate' must be finite"
        ):
            run_sweep(spec)

    def test_cells_declare_whether_the_network_was_modeled(self):
        """Baseline cells ignore the network axes; the metrics say so
        instead of letting a loss x baseline cross read as measured."""
        spec = SweepSpec(
            name="cross",
            axes=(Axis("policy", ("equal_control", "fifo")),),
            base={"participants": 2, "scenario": "storm", "duration": 3.0,
                  "loss": 0.05},
        )
        result = run_sweep(spec)
        assert result.cell("policy=equal_control").metrics[
            "network_modeled"
        ] == 1.0
        assert result.cell("policy=fifo").metrics["network_modeled"] == 0.0


class TestDeterminism:
    def test_parallel_equals_serial(self):
        """The acceptance pin: workers=4 and workers=1 agree exactly."""
        serial = run_sweep(GRID, workers=1)
        parallel = run_sweep(GRID, workers=4)
        assert [r.cell for r in serial.results] == [
            r.cell for r in parallel.results
        ]
        assert [dict(r.metrics) for r in serial.results] == [
            dict(r.metrics) for r in parallel.results
        ]

    def test_rerun_is_identical(self):
        first = run_sweep(GRID)
        second = run_sweep(GRID)
        assert [dict(r.metrics) for r in first.results] == [
            dict(r.metrics) for r in second.results
        ]

    def test_root_seed_changes_measurements(self):
        baseline = run_sweep(GRID)
        reseeded = run_sweep(GRID.with_root_seed(99))
        assert [dict(r.metrics) for r in baseline.results] != [
            dict(r.metrics) for r in reseeded.results
        ]

    def test_workers_must_be_positive(self):
        with pytest.raises(ReproError):
            run_sweep(GRID, workers=0)


class TestSweepResult:
    def test_cell_lookup(self):
        result = run_sweep(GRID)
        found = result.cell("participants=2,policy=fifo")
        assert found.cell.params["policy"] == "fifo"
        with pytest.raises(ReproError):
            result.cell("participants=9,policy=fifo")

    def test_aggregate_means_group_by_axis(self):
        result = run_sweep(GRID)
        by_policy = result.aggregate(by="policy")
        assert set(by_policy) == {"equal_control", "fifo"}
        expected = sum(
            r.metrics["requests"]
            for r in result.results
            if r.cell.params["policy"] == "fifo"
        ) / 2
        assert by_policy["fifo"]["requests"] == pytest.approx(expected)

    def test_table_renders_cells_and_groups(self):
        result = run_sweep(GRID)
        per_cell = result.table(metrics=["requests", "granted"])
        assert "participants=3,policy=fifo" in per_cell
        grouped = result.table(by="participants", metrics=["requests"])
        assert grouped.splitlines()[0].lstrip().startswith("participants")
