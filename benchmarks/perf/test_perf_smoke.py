"""Smoke test of the repo benchmark (``benchmarks/perf``).

Runs every workload at a seconds-long size through the same parent →
child path as a full run, with the traced rep, and checks the output
against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"

#: Layers predicted to move each workload's wall time (README table);
#: each must record calls there.
MOVES = {
    "lecture_session": ("clock", "net", "session", "api", "core", "events", "metrics"),
    "fleet_reference": ("core", "events", "metrics", "fabric"),
    "fleet_compiled": ("engine", "metrics", "fabric"),
    "serve_lockstep": ("serve", "core", "events"),
    "net_verify": ("petri", "check"),
    "transcript_replay": ("events", "metrics", "trace"),
}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "perf" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "BENCH_perf.json"
    proc = run_bench("--scale", "smoke", "--seconds", "0", "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


def test_prints_every_declared_metric_finite(smoke, declared):
    final, document = smoke
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert [w["name"] for w in declared["workloads"]] == list(MOVES)
    per_layer = [m["name"] for m in declared["per_layer"]]
    assert set(final["metrics"]) == {f"{w}.{m}" for w in MOVES for m in per_layer}
    for name in MOVES:
        result = document["workloads"][name]
        assert set(result["end_to_end"]) == {m["name"] for m in declared["end_to_end"]}
        assert set(result["per_layer"]) == set(per_layer)
        for value in [*result["end_to_end"].values(), *result["per_layer"].values()]:
            assert math.isfinite(value)


def test_predicted_layers_record_calls(smoke):
    _, document = smoke
    for name, moved in MOVES.items():
        values = document["workloads"][name]["per_layer"]
        for layer in moved:
            assert values[f"{layer}.calls"] > 0, (name, layer)


def test_self_time_fits_in_traced_wall(smoke):
    _, document = smoke
    for name in MOVES:
        values = document["workloads"][name]["per_layer"]
        for layer in layers.LAYERS:
            assert values[f"{layer}.self_s"] >= 0, (name, layer)
        assert values["other.share"] >= -1e-9, name


def test_wrapped_functions_are_restored():
    before = layers.snapshot()
    with pytest.raises(RuntimeError):
        with layers.wrapped():
            assert any(now is not then for now, then in zip(layers.snapshot(), before))
            raise RuntimeError("leave the block early")
    assert all(now is then for now, then in zip(layers.snapshot(), before))


def test_corrupted_check_exits_nonzero(tmp_path):
    proc = run_bench(
        "--workload", "net_verify", "--scale", "smoke", "--seconds", "0",
        "--trace", "0", "--inject-fault", "--out", str(tmp_path / "out.json"),
    )
    assert proc.returncode != 0
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_bare_benchmark_directory_fails_without_result(tmp_path, declared):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in declared["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "net_verify", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
