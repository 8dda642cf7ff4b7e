"""E16 — the array-compiled engine: same bytes, several times the steps.

E9 pinned that centralized arbitration *scales* — decisions stay O(1)
as members grow.  E16 pins that the array-compiled engine
(:mod:`repro.engine`) makes each of those decisions much cheaper
without changing a single byte of the record:

* **Speed** — on E9's arbitration-scaling workload (a request storm
  with releases, every member contending every round) the compiled
  ``equal_control`` engine sustains at least :data:`SPEEDUP_BAR` times
  the reference policy's steps/sec;
* **Fidelity** — for all four FCM modes plus both baselines, the
  compiled engine's transcript is byte-identical to the reference
  engine's on the same seeded workload, and the saved transcript
  replays clean through the PR-5 oracle
  (:func:`~repro.events.replay.replay_transcript` → ``ok``);
* **Fleet** — the fabric's ``engine="compiled"`` path folds the exact
  :class:`~repro.metrics.aggregate.FleetMetrics` of the batch engine
  (canonical JSON bytes match) while re-measuring E15's events/sec on
  the compiled path.

The module doubles as the CI artifact writer: ``python
benchmarks/bench_e16_compiled_engine.py`` runs the same checks without
pytest and writes ``BENCH_compiled_engine.json`` (schema
``repro-dmps/bench``) with one cell per policy.
"""

from __future__ import annotations

import sys
from pathlib import Path

from timing import best_of_rates, measure_seconds

from repro.engine import compiled_policy_names, make_engine_policy
from repro.events.replay import build_meta, replay_transcript
from repro.events.transcript import (
    dumps_transcript,
    save_transcript,
    transcript_filename,
)
from repro.experiments.persist import bench_filename, load_document, write_json
from repro.experiments.runner import CellResult, SweepResult
from repro.experiments.spec import Axis, Cell, SweepSpec, derive_seed
from repro.fabric import FleetBuilder, run_fleet
from repro.fabric.persist import fleet_result_to_sweep
from repro.workload.generator import WorkloadConfig, generate, member_names

#: Every policy the compiled engine covers (4 FCM modes + 2 baselines).
POLICIES = tuple(compiled_policy_names())
#: Minimum compiled-vs-reference steps/sec ratio on the storm workload.
SPEEDUP_BAR = 5.0
#: E9-shaped arbitration-scaling storm: members all contend each round.
STORM_MEMBERS = 64
STORM_ROUNDS = 120
#: Root seed of the persisted ``BENCH_compiled_engine`` document.
ROOT_SEED = 16


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def storm_steps(members: int = STORM_MEMBERS, rounds: int = STORM_ROUNDS):
    """E9's arbitration-scaling workload as a flat step list.

    Every round, every member requests the floor (one grant, the rest
    queue), then every member releases (walking the token down the
    queue) — maximum queue churn, zero I/O, so the measured rate is
    pure decision throughput.
    """
    names = member_names(members)
    steps: list[tuple[str, str]] = []
    for _ in range(rounds):
        steps.extend(("request", name) for name in names)
        steps.extend(("release", name) for name in names)
    return steps


def seeded_workload():
    """The seeded contended workload the fidelity checks replay."""
    config = WorkloadConfig(
        members=12, duration=180.0, seed=ROOT_SEED, request_rate=4.0
    )
    return [
        (event.action, event.member, event.time)
        for event in generate("seminar", config)
        if event.action in ("request", "release")
    ]


def drive(policy, steps) -> float:
    """Run ``steps`` through one policy per-call; returns wall seconds."""
    request, release = policy.request, policy.release

    def run() -> None:
        for action, member, *rest in steps:
            now = rest[0] if rest else 0.0
            if action == "request":
                request(member, now)
            else:
                release(member, now)

    __, seconds = measure_seconds(run)
    return seconds


def transcript_text(policy) -> str:
    """The policy's replayable canonical-JSONL transcript."""
    events = policy.events()
    return dumps_transcript(events, meta=build_meta(events))


# ----------------------------------------------------------------------
# Measurements (shared by pytest and the __main__ artifact writer)
# ----------------------------------------------------------------------
def measure_speedup(best_of: int = 3):
    """Best-of-N steps/sec for both engines on the storm workload, the
    engines alternating repeat by repeat so that both meet the same
    host conditions."""
    steps = storm_steps()
    rates = best_of_rates(
        len(steps),
        {
            engine: lambda engine=engine: drive(
                make_engine_policy("equal_control", engine=engine), steps
            )
            for engine in ("reference", "compiled")
        },
        repeats=best_of,
    )
    return rates["reference"], rates["compiled"], len(steps)


def speedup_shortfall(ref_rate: float, comp_rate: float) -> str:
    """Why a storm speedup misses :data:`SPEEDUP_BAR`, with both rates."""
    return (
        f"compiled engine is only {comp_rate / ref_rate:.1f}x the reference "
        f"({ref_rate:,.0f} -> {comp_rate:,.0f} steps/s; bar: {SPEEDUP_BAR}x)"
    )


def check_fidelity(policy_name: str, directory: Path):
    """Byte-compare both engines' transcripts; replay the saved one.

    Returns ``(events, identical, replay_ok)`` for the policy.
    """
    steps = seeded_workload()
    texts = {}
    for engine in ("reference", "compiled"):
        policy = make_engine_policy(policy_name, engine=engine)
        drive(policy, steps)
        texts[engine] = transcript_text(policy)
    identical = texts["reference"].encode() == texts["compiled"].encode()
    compiled = make_engine_policy(policy_name, engine="compiled")
    drive(compiled, steps)
    events = compiled.events()
    path = save_transcript(
        directory / transcript_filename(f"e16_{policy_name}"),
        events,
        meta=build_meta(events),
    )
    return len(events), identical, replay_transcript(path).ok


def fleet_rates(sessions: int = 800, duration: float = 10.0):
    """E15's fleet throughput re-measured on both fabric engines.

    Returns ``{engine: (events_per_sec, metrics_json)}`` where the
    metrics text is the timing-free canonical fold (must match).
    """
    out = {}
    for engine in ("batch", "compiled"):
        config = (
            FleetBuilder()
            .sessions(sessions)
            .shards(4)
            .members(4)
            .policy("equal_control")
            .scenario("seminar")
            .duration(duration)
            .ring_capacity(128)
            .seed(15)
            .engine(engine)
            .config()
        )
        result = run_fleet(config)
        sweep = fleet_result_to_sweep(result, include_timing=False)
        fold = dict(sweep.results[0].metrics)
        out[engine] = (result.events_per_sec, fold)
    return out


def build_result(directory: Path) -> SweepResult:
    """Run every E16 check; package the outcome as one bench sweep.

    One cell per compiled policy (``identical`` / ``replay_ok`` /
    ``events``), with the storm speedup recorded on the
    ``equal_control`` cell — machine-dependent like E15's timing block,
    so the document is honest about where the rates came from.
    """
    ref_rate, comp_rate, storm = measure_speedup()
    spec = SweepSpec(
        name="compiled_engine",
        axes=(Axis("policy", POLICIES),),
        base={"members": 12, "duration": 180.0, "scenario": "seminar"},
        runner="policy",
        root_seed=ROOT_SEED,
    )
    results = []
    for index, policy_name in enumerate(POLICIES):
        events, identical, replay_ok = check_fidelity(policy_name, directory)
        metrics = {
            "events": float(events),
            "identical": float(identical),
            "replay_ok": float(replay_ok),
        }
        if policy_name == "equal_control":
            metrics["storm_steps"] = float(storm)
            metrics["reference_steps_per_sec"] = ref_rate
            metrics["compiled_steps_per_sec"] = comp_rate
            metrics["speedup"] = comp_rate / ref_rate
        params = {**dict(spec.base), "policy": policy_name}
        results.append(
            CellResult(
                cell=Cell(
                    index=index,
                    cell_id=f"policy={policy_name}",
                    params=params,
                    seed=derive_seed(ROOT_SEED, spec.runner, params),
                ),
                metrics=metrics,
            )
        )
    return SweepResult(spec=spec, results=tuple(results))


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_e16_compiled_storm_speedup(table):
    """The compiled engine clears the ≥5x bar on E9's storm workload."""
    ref_rate, comp_rate, storm = measure_speedup()
    speedup = comp_rate / ref_rate
    table(
        f"E16: equal-control storm, {STORM_MEMBERS} members x "
        f"{STORM_ROUNDS} rounds",
        ["engine", "steps", "steps/s"],
        [("reference", storm, ref_rate), ("compiled", storm, comp_rate)],
    )
    assert speedup >= SPEEDUP_BAR, speedup_shortfall(ref_rate, comp_rate)


def test_e16_transcripts_byte_identical_and_replayable(table, tmp_path):
    """All 4 modes + both baselines: identical bytes, clean replay."""
    rows = []
    for policy_name in POLICIES:
        events, identical, replay_ok = check_fidelity(policy_name, tmp_path)
        rows.append((policy_name, events, identical, replay_ok))
    table(
        "E16: compiled vs reference transcripts (seeded seminar, 12 members)",
        ["policy", "events", "byte-identical", "replay ok"],
        rows,
    )
    assert all(identical for _, __, identical, ___ in rows)
    assert all(replay_ok for _, __, ___, replay_ok in rows)


def test_e16_fleet_compiled_fold_matches_batch(table):
    """The fabric's compiled path folds the batch engine's exact bytes
    while re-measuring E15 throughput on the compiled engine."""
    rates = fleet_rates()
    batch_rate, batch_fold = rates["batch"]
    compiled_rate, compiled_fold = rates["compiled"]
    table(
        "E16: fleet engines, 800 sessions (timing machine-dependent)",
        ["engine", "granted", "served", "events/s"],
        [
            ("batch", batch_fold["granted"], batch_fold["served"], batch_rate),
            ("compiled", compiled_fold["granted"], compiled_fold["served"],
             compiled_rate),
        ],
    )
    from repro.events.transcript import canonical_json

    assert canonical_json(batch_fold) == canonical_json(compiled_fold)
    assert compiled_rate > 0 and batch_rate > 0


def test_e16_bench_artifact_round_trips(table, tmp_path):
    """The persisted document loads back with every check green."""
    result = build_result(tmp_path)
    path = write_json(result, tmp_path / bench_filename("compiled_engine"))
    document = load_document(path)
    assert document["schema"] == "repro-dmps/bench"
    cells = document["cells"]
    assert len(cells) == len(POLICIES)
    for cell in cells:
        assert cell["metrics"]["identical"] == 1.0
        assert cell["metrics"]["replay_ok"] == 1.0
    (storm_cell,) = [
        cell for cell in cells if cell["params"]["policy"] == "equal_control"
    ]
    metrics = storm_cell["metrics"]
    assert metrics["speedup"] >= SPEEDUP_BAR, speedup_shortfall(
        metrics["reference_steps_per_sec"], metrics["compiled_steps_per_sec"]
    )
    table(
        "E16: persisted BENCH_compiled_engine cells",
        ["cell", "events", "identical", "replay ok"],
        [
            (cell["id"], cell["metrics"]["events"],
             cell["metrics"]["identical"], cell["metrics"]["replay_ok"])
            for cell in cells
        ],
    )


# ----------------------------------------------------------------------
# CI artifact writer (no pytest in the bench-smoke lane)
# ----------------------------------------------------------------------
def main() -> int:
    directory = Path.cwd()
    result = build_result(directory)
    path = write_json(result, directory / bench_filename("compiled_engine"))
    failures = []
    for cell_result in result.results:
        metrics = cell_result.metrics
        label = cell_result.cell.cell_id
        print(
            f"{label:<28} events={metrics['events']:>7.0f} "
            f"identical={metrics['identical']:.0f} "
            f"replay_ok={metrics['replay_ok']:.0f}"
        )
        if metrics["identical"] != 1.0:
            failures.append(f"{label}: transcripts diverge between engines")
        if metrics["replay_ok"] != 1.0:
            failures.append(f"{label}: saved transcript fails replay")
        if "speedup" in metrics:
            print(
                f"{'':28} storm speedup {metrics['speedup']:.1f}x "
                f"({metrics['reference_steps_per_sec']:,.0f} -> "
                f"{metrics['compiled_steps_per_sec']:,.0f} steps/s)"
            )
            if metrics["speedup"] < SPEEDUP_BAR:
                failures.append(
                    f"{label}: "
                    + speedup_shortfall(
                        metrics["reference_steps_per_sec"],
                        metrics["compiled_steps_per_sec"],
                    )
                )
    print(f"wrote {path}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
