"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import SCHEMA_VERSION, load_document

GOLDEN_DIR = Path(__file__).parents[1] / "benchmarks" / "golden"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_requires_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])


class TestCommands:
    def test_demo_classroom(self, capsys):
        assert main(["demo", "classroom"]) == 0
        out = capsys.readouterr().out
        assert "whiteboard:" in out
        assert "session report" in out
        assert "teacher's point" in out

    def test_demo_lecture(self, capsys):
        assert main(["demo", "lecture"]) == 0
        out = capsys.readouterr().out
        assert "global clock OFF" in out
        assert "global clock ON" in out

    def test_schedule(self, capsys):
        assert main(["schedule", "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "synchronous sets:" in out
        assert "demo_video" in out

    def test_dot(self, capsys):
        assert main(["dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "title[0]" in out

    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "session report" in out
        assert "100% acceptance" in out

    def test_seed_changes_run(self, capsys):
        main(["--seed", "1", "report"])
        first = capsys.readouterr().out
        main(["--seed", "2", "report"])
        second = capsys.readouterr().out
        # Latencies differ with the seeded topology.
        assert first != second

    def test_seed_is_deterministic(self, capsys):
        main(["--seed", "7", "report"])
        first = capsys.readouterr().out
        main(["--seed", "7", "report"])
        second = capsys.readouterr().out
        assert first == second

    def test_policies_lists_registry(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out.split()
        assert "equal_control" in out
        assert "fifo" in out

    @pytest.mark.parametrize("name", ["lecture", "seminar", "panel", "storm"])
    def test_demo_scenario_runs_every_workload(self, name, capsys):
        # seed 1 panel used to schedule events inside the join warmup.
        args = ["--seed", "1", "demo", "scenario", "--name", name,
                "--members", "4", "--duration", "20"]
        assert main(args) == 0
        assert "session report" in capsys.readouterr().out

    def test_demo_scenario_refuses_non_finite_duration(self, capsys):
        args = ["demo", "scenario", "--name", "lecture", "--duration", "nan"]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: duration must be finite, got nan\n"
        )

    def test_demo_scenario_lecture_chair_posts_accepted(self, capsys):
        args = ["--seed", "3", "demo", "scenario", "--name", "lecture",
                "--members", "4", "--duration", "30"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "(0% acceptance)" not in out

    def test_demo_scenario_rejects_zero_members(self):
        args = ["demo", "scenario", "--name", "storm", "--members", "0"]
        assert main(args) == 2


class TestSweep:
    def test_requires_some_spec(self, capsys):
        assert main(["sweep"]) == 2
        assert "--smoke" in capsys.readouterr().err

    def test_list_names_registry(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "smoke" in out
        assert "delay_grid" in out

    def test_smoke_writes_schema_versioned_bench_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_smoke.json"
        assert main(["sweep", "--smoke", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "sweep 'smoke'" in printed
        assert "policy=fifo" in printed
        document = load_document(out)
        assert document["schema_version"] == SCHEMA_VERSION
        assert len(document["cells"]) == 3

    def test_smoke_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--smoke"]) == 0
        assert (tmp_path / "BENCH_smoke.json").exists()

    def test_inline_axes_with_csv_and_grouping(self, tmp_path, capsys):
        args = [
            "sweep",
            "--axis", "policy=fifo,free_for_all",
            "--set", "participants=2", "--set", "scenario=storm",
            "--set", "duration=3",
            "--group-by", "policy",
            "--out", str(tmp_path / "BENCH_inline.json"),
            "--csv", str(tmp_path / "BENCH_inline.csv"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "sweep 'inline': 2 cells" in out
        csv_head = (tmp_path / "BENCH_inline.csv").read_text().splitlines()[0]
        assert csv_head.startswith("cell,seed,")

    def test_seed_flag_anchors_the_root_seed(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        third = tmp_path / "c.json"
        main(["--seed", "4", "sweep", "--smoke", "--out", str(first)])
        main(["--seed", "4", "sweep", "--smoke", "--out", str(second)])
        main(["--seed", "5", "sweep", "--smoke", "--out", str(third)])
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() != third.read_bytes()

    def test_parallel_workers_match_serial_bytes(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        main(["sweep", "--smoke", "--out", str(serial)])
        main(["sweep", "--smoke", "--workers", "4", "--out", str(parallel)])
        assert serial.read_bytes() == parallel.read_bytes()

    def test_malformed_axis_reported(self, capsys):
        assert main(["sweep", "--axis", "policy"]) == 2
        assert "--axis" in capsys.readouterr().err

    def test_duplicate_axis_reported(self, capsys):
        args = ["sweep", "--axis", "policy=fifo", "--axis", "policy=free_for_all"]
        assert main(args) == 2
        assert "declared twice" in capsys.readouterr().err

    def test_typo_parameter_reported(self, capsys):
        args = ["sweep", "--axis", "policy=fifo", "--set", "particpants=32"]
        assert main(args) == 2
        assert "particpants" in capsys.readouterr().err

    def test_numeric_axis_rows_in_declared_order(self, tmp_path, capsys):
        args = ["sweep", "--axis", "participants=4,8,16",
                "--set", "scenario=storm", "--set", "duration=3",
                "--out", str(tmp_path / "b.json")]
        assert main(args) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if "participants=" in line]
        assert [row.split("|")[0].strip() for row in rows] == [
            "participants=4", "participants=8", "participants=16",
        ]

    def test_unknown_spec_reported(self, capsys):
        assert main(["sweep", "--spec", "nope"]) == 2
        assert "unknown sweep spec" in capsys.readouterr().err


class TestFleet:
    _FAST = ["fleet", "--sessions", "12", "--shards", "3", "--members",
             "4", "--scenario", "lecture", "--request-rate", "6",
             "--duration", "6"]

    def test_fleet_runs_and_writes_bench_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_fleet.json"
        assert main(self._FAST + ["--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "fleet report: 12 sessions" in printed
        assert "sessions/s" in printed
        document = load_document(out)
        assert document["schema_version"] == SCHEMA_VERSION
        (cell,) = document["cells"]
        assert cell["params"]["sessions"] == 12
        assert cell["metrics"]["sessions_per_sec"] > 0

    def test_fleet_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self._FAST) == 0
        assert (tmp_path / "BENCH_fleet.json").exists()

    def test_workers_match_serial_bytes_minus_timing(self, tmp_path):
        # Timing always differs; everything deterministic must not.
        serial = tmp_path / "serial.json"
        sharded = tmp_path / "sharded.json"
        assert main(self._FAST + ["--out", str(serial)]) == 0
        assert main(self._FAST + ["--workers", "3",
                                  "--out", str(sharded)]) == 0

        def strip_timing(path):
            document = load_document(path)
            for cell in document["cells"]:
                for key in ("sessions_per_sec", "events_per_sec",
                            "wall_seconds"):
                    cell["metrics"].pop(key)
            return document

        assert strip_timing(serial) == strip_timing(sharded)

    def test_seed_flag_anchors_the_fleet(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        main(["--seed", "9", *self._FAST, "--out", str(first)])
        main(["--seed", "8", *self._FAST, "--out", str(second)])
        a, b = load_document(first), load_document(second)
        assert a["cells"][0]["seed"] == 9
        assert a["cells"][0]["metrics"]["granted"] != \
            b["cells"][0]["metrics"]["granted"]

    def test_bad_config_reported(self, capsys):
        assert main(["fleet", "--sessions", "0"]) == 2
        assert "session" in capsys.readouterr().err

    def test_negative_request_rate_refused(self, tmp_path, capsys):
        out = tmp_path / "BENCH_fleet.json"
        assert main(["fleet", "--sessions", "2", "--duration", "20",
                     "--request-rate", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: request_rate must be >= 0, got -1.0\n"
        )
        assert not out.exists()

    def test_smoke_preset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fleet", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fleet report: 500 sessions" in out
        assert (tmp_path / "BENCH_fleet.json").exists()


class TestCheck:
    def test_requires_some_suite(self, capsys):
        assert main(["check"]) == 2
        assert "--smoke" in capsys.readouterr().err

    def test_list_names_registry(self, capsys):
        assert main(["check", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "floor_safety" in out
        assert "figure1" in out

    def test_smoke_proves_floor_mutex_for_all_modes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "suite 'figure1'" in out
        assert "suite 'floor_safety'" in out
        assert "VIOLATED" not in out
        assert "UNKNOWN" not in out
        # every FCM mode's mutex line is PROVED by an inductive method
        for mode in ("free_access", "equal_control",
                     "group_discussion", "direct_contact"):
            row = next(
                line for line in out.splitlines()
                if line.startswith(mode) and "mutex" in line
            )
            assert "PROVED" in row
            assert "invariant" in row or "state-equation" in row
        # The verdict documents, state counts and counterexamples
        # included, are pinned byte for byte.
        for name in ("CHECK_figure1", "CHECK_floor_safety"):
            golden = GOLDEN_DIR / f"{name}.golden.json"
            assert (tmp_path / f"{name}.json").read_bytes() == golden.read_bytes()

    def test_suite_with_out_path(self, tmp_path, capsys):
        out = tmp_path / "verdicts.json"
        assert main(["check", "--suite", "floor_safety", "--members", "4",
                     "--out", str(out)]) == 0
        import json

        document = json.loads(out.read_text())
        assert document["schema"] == "repro-dmps/check"
        assert document["members"] == 4
        assert document["counts"]["violated"] == 0

    def test_violated_suite_exits_one(self, tmp_path, capsys):
        from repro.check import (
            CheckCase,
            CheckSuite,
            Mutex,
            product_cycles,
            register_suite,
            unregister_suite,
        )

        net = product_cycles(cycles=2, length=2)

        def build(members):
            return CheckSuite(
                name="cli_bad", description="d",
                cases=(CheckCase("bad", net, (Mutex(("c0_p0", "c1_p1")),)),),
            )

        register_suite("cli_bad", build)
        try:
            code = main(["check", "--suite", "cli_bad",
                         "--out", str(tmp_path / "bad.json")])
        finally:
            unregister_suite("cli_bad")
        assert code == 1
        out = capsys.readouterr().out
        assert "counterexample" in out

    def test_unknown_suite_reported(self, capsys):
        assert main(["check", "--suite", "nope"]) == 2
        assert "unknown check suite" in capsys.readouterr().err

    def test_zero_budget_named_as_the_budget(self, tmp_path, capsys):
        assert main(["check", "--smoke", "--budget", "0",
                     "--out", str(tmp_path / "zero.json")]) == 2
        assert capsys.readouterr().err == (
            "error: budget must be an int >= 1, got 0\n"
        )

    def test_multiple_suites_with_explicit_out_get_suffixes(self, tmp_path):
        base = tmp_path / "multi.json"
        assert main(["check", "--suite", "figure1", "--suite", "floor_safety",
                     "--out", str(base)]) == 0
        assert (tmp_path / "multi.json.figure1.json").exists()
        assert (tmp_path / "multi.json.floor_safety.json").exists()

    def test_deterministic_verdict_bytes(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["check", "--suite", "floor_safety", "--out", str(first)])
        main(["check", "--suite", "floor_safety", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_strict_fails_on_unknown_verdicts(self, tmp_path, capsys):
        # Regression: the smoke gate used to exit 0 on UNKNOWN, passing
        # CI while proving nothing.  A tiny budget leaves the non-linear
        # properties (deadlock freedom) undecided.
        code = main(["check", "--suite", "floor_safety", "--members", "8",
                     "--budget", "2", "--strict",
                     "--out", str(tmp_path / "u.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "UNKNOWN" in err and "strict" in err
        # without --strict the same run is merely unproven, not failed
        code = main(["check", "--suite", "floor_safety", "--members", "8",
                     "--budget", "2", "--out", str(tmp_path / "u2.json")])
        assert code == 0
