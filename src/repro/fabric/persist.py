"""Persist fleet runs as schema-versioned ``BENCH_fleet`` documents.

A fleet run reuses the sweep engine's persistence end to end: the run
becomes a synthetic one-cell :class:`~repro.experiments.runner.SweepResult`
(runner ``"fleet"``, the fleet's root seed, the config as the cell's
parameters) and flows through :mod:`repro.experiments.persist` — same
``repro-dmps/bench`` schema, same sorted-key canonical JSON, same
loader.  The deterministic fold alone is byte-stable across reruns;
wall-clock throughput (``sessions_per_sec`` / ``events_per_sec``) is
appended only when ``include_timing`` is set, which is how the
benchmark records machine rates without poisoning byte-identity tests.
"""

from __future__ import annotations

from pathlib import Path

from ..experiments.persist import one_cell_result, write_json
from ..experiments.runner import SweepResult
from .fleet import FleetResult

__all__ = ["fleet_result_to_sweep", "write_fleet_json"]


def _config_params(result: FleetResult) -> dict[str, object]:
    config = result.config
    return {
        "sessions": config.sessions,
        "shards": config.shards,
        "members": config.members,
        "policy": config.policy,
        "scenario": config.scenario,
        "duration": config.duration,
        "tick": config.tick,
        "ring_capacity": config.ring_capacity,
        "mean_hold": config.mean_hold,
        "request_rate": config.request_rate,
        "engine": config.engine,
    }


def fleet_result_to_sweep(
    result: FleetResult,
    name: str = "fleet",
    include_timing: bool = False,
) -> SweepResult:
    """Wrap a fleet run as a synthetic one-cell sweep result
    (:func:`~repro.experiments.persist.one_cell_result`, runner
    ``"fleet"``, the fleet's root seed)."""
    metrics = result.to_metrics()
    if include_timing:
        metrics["sessions_per_sec"] = result.sessions_per_sec
        metrics["events_per_sec"] = result.events_per_sec
        metrics["wall_seconds"] = result.wall_seconds
    return one_cell_result(
        name, "fleet", _config_params(result), result.config.seed, metrics
    )


def write_fleet_json(
    result: FleetResult,
    path: str | Path,
    name: str = "fleet",
    include_timing: bool = True,
) -> Path:
    """Write the canonical ``BENCH_fleet`` JSON; returns the path."""
    return write_json(fleet_result_to_sweep(result, name, include_timing), path)
