"""Persist a soak run as a canonical ``BENCH_serve`` document.

Mirrors :mod:`repro.fabric.persist`: the soak becomes a synthetic
one-cell sweep under the shared ``repro-dmps/bench`` schema, so every
artifact-reading tool (``repro bench``, the diff/check machinery, CI
byte-stability pins) consumes serving benchmarks with zero new code.
The deterministic metric set (grant latency percentiles, Jain
fairness, eviction and round counters) is written by default; wall
timing and flush counters join only under ``include_timing`` — the
same opt-in convention the fleet uses, which is what keeps two
identically seeded soak documents byte-identical.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..experiments.persist import one_cell_result, write_json
from ..experiments.runner import SweepResult
from .soak import SoakResult

__all__ = ["soak_result_to_sweep", "write_soak_json"]


def _spec_params(result: SoakResult) -> dict[str, Any]:
    spec = result.spec
    return {
        "clients": spec.clients,
        "rounds": spec.rounds,
        "request_prob": spec.request_prob,
        "hold_rounds": spec.hold_rounds,
        "disconnects": spec.disconnects,
        "disconnect_round": spec.disconnect_round,
        "policy": spec.policy,
        "tick": spec.tick,
        "ring_capacity": spec.ring_capacity,
        "queue_high": spec.queue_high,
        "queue_low": spec.queue_low,
    }


def soak_result_to_sweep(
    result: SoakResult,
    name: str = "serve",
    include_timing: bool = False,
) -> SweepResult:
    """Wrap a soak as a synthetic one-cell sweep result
    (:func:`~repro.experiments.persist.one_cell_result`, runner
    ``"serve"``, the soak's seed)."""
    return one_cell_result(
        name,
        "serve",
        _spec_params(result),
        result.spec.seed,
        result.to_metrics(include_timing=include_timing),
    )


def write_soak_json(
    result: SoakResult,
    path: str | Path,
    name: str = "serve",
    include_timing: bool = False,
) -> Path:
    """Write the canonical ``BENCH_serve`` JSON; returns the path."""
    return write_json(soak_result_to_sweep(result, name, include_timing), path)
