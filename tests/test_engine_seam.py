"""Tests for the engine seam: facade, sweeps, fleet and CLI select engines."""

import pytest

from repro.api.config import ParticipantSpec, SessionBuilder, SessionConfig
from repro.api.session import Session
from repro.api.scenario import Scenario
from repro.errors import ReproError, SessionError
from repro.experiments.runner import run_sweep
from repro.experiments.spec import (
    CAPTURE_PARAMS,
    EXECUTION_PARAMS,
    Axis,
    SweepSpec,
    derive_seed,
)
from repro.fabric import FleetBuilder, FleetConfig, write_fleet_json
from repro.workload.generator import WorkloadConfig, generate, member_names


# ----------------------------------------------------------------------
# Facade seam
# ----------------------------------------------------------------------
def test_session_config_validates_engine():
    roster = (ParticipantSpec("alice"),)
    SessionConfig(participants=roster, engine="compiled").validate()
    with pytest.raises(SessionError, match="engine"):
        SessionConfig(participants=roster, engine="turbo").validate()


def test_builder_sets_engine():
    config = SessionBuilder().engine("compiled").config()
    assert config.engine == "compiled"
    assert SessionBuilder().config().engine == "reference"


def run_facade(engine, tmp_path, policy: str = "equal_control", seed: int = 21):
    workload = generate(
        "seminar", WorkloadConfig(members=6, duration=30.0, seed=seed)
    )
    builder = (
        Session.builder(chair="teacher")
        .seed(seed)
        .policy(policy)
        .engine(engine)
    )
    builder.participants(*member_names(6))
    with builder.build() as session:
        Scenario.from_workload(workload, name="seam").run(session, until=31.0)
        report = session.report()
        path = session.save_transcript(tmp_path / f"{engine}.jsonl")
    return report, path.read_bytes()


@pytest.mark.parametrize("policy", ["equal_control", "group_discussion"])
def test_facade_compiled_matches_reference(policy, tmp_path):
    ref_report, ref_transcript = run_facade("reference", tmp_path, policy)
    comp_report, comp_transcript = run_facade("compiled", tmp_path, policy)
    assert comp_report == ref_report
    assert comp_transcript == ref_transcript


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
def test_engine_is_an_execution_param():
    assert "engine" in EXECUTION_PARAMS
    assert not (EXECUTION_PARAMS & CAPTURE_PARAMS)
    base = {"policy": "equal_control", "participants": 4}
    seeds = {
        derive_seed(9, "session", {**base, "engine": engine})
        for engine in ("reference", "compiled")
    }
    seeds.add(derive_seed(9, "session", base))
    assert len(seeds) == 1


def test_identity_params_still_reseed():
    assert derive_seed(9, "session", {"participants": 4}) != derive_seed(
        9, "session", {"participants": 5}
    )


# ----------------------------------------------------------------------
# Sweep runners
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "runner,base",
    [
        ("session", {"participants": 5, "duration": 15.0,
                     "policy": "equal_control"}),
        ("policy", {"participants": 5, "duration": 15.0, "policy": "fifo"}),
    ],
)
def test_engine_axis_never_changes_metrics(runner, base):
    spec = SweepSpec(
        name="seam",
        axes=(Axis("engine", ("reference", "compiled")),),
        base=base,
        runner=runner,
        root_seed=4,
    )
    reference, compiled = run_sweep(spec).results
    assert reference.cell.seed == compiled.cell.seed
    assert dict(reference.metrics) == dict(compiled.metrics)


def test_policy_runner_rejects_unknown_engine():
    spec = SweepSpec(
        name="seam",
        base={"policy": "fifo", "engine": "turbo"},
        runner="policy",
        root_seed=4,
    )
    with pytest.raises(ReproError, match="engine"):
        run_sweep(spec)


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_policy_runner_rejects_custom_policy(engine):
    from repro.api.policies import register_policy, unregister_policy

    register_policy("custom_cell", lambda **kwargs: None)
    try:
        spec = SweepSpec(
            name="seam",
            base={"policy": "custom_cell", "engine": engine},
            runner="policy",
            root_seed=4,
        )
        with pytest.raises(ReproError, match="custom_cell"):
            run_sweep(spec)
    finally:
        unregister_policy("custom_cell")


# ----------------------------------------------------------------------
# Fleet seam
# ----------------------------------------------------------------------
def test_fleet_config_accepts_compiled_engine():
    FleetConfig(engine="compiled").validate()
    with pytest.raises(ReproError, match="engine"):
        FleetConfig(engine="turbo").validate()


def test_fleet_rejects_uncompiled_policy(monkeypatch):
    from repro.api.policies import register_policy, unregister_policy

    register_policy("custom_seam", lambda **kwargs: None)
    try:
        # Fleets drive the shared policy surface, which only the six
        # built-ins have: a custom policy is rejected on every engine.
        with pytest.raises(ReproError, match="built-in policies"):
            FleetConfig(engine="batch", policy="custom_seam").validate()
        with pytest.raises(ReproError, match="no compiled engine"):
            FleetConfig(engine="compiled", policy="custom_seam").validate()
    finally:
        unregister_policy("custom_seam")


@pytest.mark.parametrize("policy", ["equal_control", "fifo", "free_for_all"])
def test_fleet_compiled_fold_is_byte_identical(policy, tmp_path):
    documents = []
    for engine in ("batch", "compiled"):
        result = (
            FleetBuilder()
            .sessions(12)
            .shards(3)
            .members(4)
            .policy(policy)
            .scenario("seminar")
            .duration(15.0)
            .ring_capacity(64)
            .seed(6)
            .engine(engine)
            .run()
        )
        path = write_fleet_json(
            result, tmp_path / f"{engine}.json", include_timing=False
        )
        text = path.read_text()
        # The honest engine stamp is the only difference in the doc.
        documents.append(text.replace(f'"engine": "{engine}"', '"engine": "*"'))
    assert documents[0] == documents[1]


def test_fleet_compiled_sharding_is_deterministic():
    config = (
        FleetBuilder()
        .sessions(30)
        .members(4)
        .policy("equal_control")
        .duration(12.0)
        .seed(8)
        .engine("compiled")
        .config()
    )
    serial = (
        FleetBuilder()
        .sessions(30)
        .members(4)
        .policy("equal_control")
        .duration(12.0)
        .seed(8)
        .engine("compiled")
        .shards(1)
        .run()
    )
    from dataclasses import replace

    from repro.fabric import run_fleet

    sharded = run_fleet(replace(config, shards=5), workers=3)
    assert serial.metrics == sharded.metrics


# ----------------------------------------------------------------------
# CLI seam
# ----------------------------------------------------------------------
def test_cli_fleet_engine_choices_include_compiled(capsys):
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["fleet", "--sessions", "4", "--engine", "compiled"]
    )
    assert args.engine == "compiled"
    with pytest.raises(SystemExit):
        parser.parse_args(["fleet", "--engine", "turbo"])
    capsys.readouterr()


def test_cli_fleet_smoke_runs_compiled(capsys):
    from repro.cli import main

    code = main(
        ["fleet", "--sessions", "6", "--members", "3", "--duration", "5",
         "--engine", "compiled"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "sessions" in out
