"""E17 — one streaming metrics kernel: same bytes, a fraction of the memory.

PR 8 collapsed four metric implementations (buffered sweep helpers,
fabric folds, transcript replay, ad-hoc report counters) into the
single streaming :class:`~repro.metrics.fold.MetricsFold`.  This bench
pins the two claims that refactor stands on:

* **Byte identity** — the smoke sweep's ``BENCH_smoke.json`` and the
  smoke fleet's deterministic fold reproduce the **pre-refactor
  golden files** (committed under ``benchmarks/golden/``) byte for
  byte.  The kernel changed where the numbers are computed, not one
  bit of what is persisted.
* **Streaming memory** — a 100k-event sweep cell that feeds the fold
  from a ring-bounded bus subscription peaks at less than
  :data:`MEMORY_BAR` times the buffered path (retain every event,
  re-scan at the end).  The acceptance bar is ≥2x lower peak; measured
  is far lower, since fold state is O(members), not O(events).

A third pin covers the clock: a VirtualClock heap entry is a
dict-free four-item list, and its measured per-entry footprint stays
under :data:`CLOCK_ENTRY_BYTES` — a 10k-timer fleet's scheduler
overhead is bounded.

The module doubles as the CI artifact writer: ``python
benchmarks/bench_e17_streaming_metrics.py`` runs the same checks
without pytest and writes ``BENCH_streaming_metrics.json``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from timing import heap_delta, peak_memory

from repro.clock.virtual import VirtualClock
from repro.events.bus import EventBus
from repro.events.replay import transcript_metrics
from repro.events.types import EventKind, FloorEvent
from repro.experiments.persist import bench_filename, dumps, write_json
from repro.experiments.runner import register_runner, run_sweep
from repro.experiments.spec import Axis, SweepSpec
from repro.experiments.specs import named_spec
from repro.fabric.config import FleetConfig
from repro.fabric.fleet import run_fleet
from repro.metrics import MetricsFold

GOLDEN_DIR = Path(__file__).parent / "golden"
#: Streaming peak must be below this fraction of the buffered peak
#: (the acceptance criterion is ≥2x lower, i.e. < 0.5).
MEMORY_BAR = 0.5
#: Upper bound on one VirtualClock heap entry (bytes),
#: including its share of heap-list and args-tuple overhead.
CLOCK_ENTRY_BYTES = 200
#: Synthetic stream size for the memory cell.
STREAM_EVENTS = 100_000
STREAM_MEMBERS = 8
#: Ring capacity of the streaming path's bus.
STREAM_RING = 256
#: Root seed of the persisted ``BENCH_streaming_metrics`` document.
ROOT_SEED = 17

#: ``repro fleet --smoke`` reconstructed exactly (src/repro/cli.py).
SMOKE_FLEET = dict(
    sessions=500, shards=4, members=8, scenario="lecture",
    duration=20.0, request_rate=6.0,
)


# ----------------------------------------------------------------------
# The 100k-event sweep cell (registered runner "e17_stream")
# ----------------------------------------------------------------------
def _stream(seed: int):
    """A deterministic 100k-event floor stream (requests vs grants)."""
    rng = random.Random(seed)
    members = [f"m{i}" for i in range(STREAM_MEMBERS)]
    emitted = 0
    for member in members:
        yield FloorEvent(0.0, EventKind.JOIN, member, "session")
        emitted += 1
    waiting: list[str] = []
    t = 0.0
    while emitted < STREAM_EVENTS:
        t += 0.01
        if waiting and rng.random() < 0.55:
            yield FloorEvent(t, EventKind.GRANT, waiting.pop(0), "session")
        else:
            member = members[rng.randrange(STREAM_MEMBERS)]
            waiting.append(member)
            yield FloorEvent(t, EventKind.REQUEST, member, "session")
        emitted += 1


def run_stream_cell(cell):
    """One metrics pass over the synthetic stream.

    ``path="buffered"`` is the pre-refactor shape: the bus retains all
    100k events, metrics are a batch re-scan at the end — O(events)
    peak.  ``path="streaming"`` is the kernel shape: a fold-mode
    :class:`MetricsFold` subscribes to a ring-bounded bus, so peak
    state is O(members + ring).
    """
    path = cell.params["path"]
    if path == "buffered":
        bus = EventBus()
        for event in _stream(cell.seed):
            bus.publish(event)
        return transcript_metrics(list(bus))
    bus = EventBus(capacity=STREAM_RING)
    fold = MetricsFold(mode="fold")
    bus.subscribe(fold.add)
    for event in _stream(cell.seed):
        bus.publish(event)
    return fold.to_metrics()


register_runner("e17_stream", run_stream_cell)

_STREAM_SPEC = SweepSpec(
    name="streaming_metrics",
    runner="e17_stream",
    axes=(Axis("path", ("buffered", "streaming")),),
    base={"events": STREAM_EVENTS, "members": STREAM_MEMBERS},
).with_root_seed(ROOT_SEED)


# ----------------------------------------------------------------------
# Measurements (shared by pytest and the __main__ artifact writer)
# ----------------------------------------------------------------------
def measure_stream_memory() -> dict[str, dict[str, float]]:
    """Run both one-cell paths under tracemalloc; returns
    ``{path: {metrics..., "peak_kb": ...}}``."""
    out: dict[str, dict[str, float]] = {}
    for path in ("buffered", "streaming"):
        spec = SweepSpec(
            name=f"e17_{path}",
            runner="e17_stream",
            axes=(Axis("path", (path,)),),
            base=dict(_STREAM_SPEC.base),
        ).with_root_seed(ROOT_SEED)
        result, peak = peak_memory(run_sweep, spec)
        metrics = dict(result.results[0].metrics)
        metrics["peak_kb"] = peak / 1024.0
        out[path] = metrics
    return out


def measure_clock_heap(entries: int = 10_000) -> float:
    """Mean tracemalloc bytes per pending VirtualClock timer."""
    clock = VirtualClock()

    def noop() -> None:
        pass

    def schedule() -> None:
        for i in range(entries):
            clock.call_at(float(i), noop)

    __, delta = heap_delta(schedule)
    return delta / entries


# ----------------------------------------------------------------------
# Pytest entry points
# ----------------------------------------------------------------------
def test_e17_smoke_bench_bytes_match_pre_refactor_golden():
    # `repro sweep --smoke` reconstructed exactly: named smoke spec,
    # default root seed 0, canonical persistence bytes.
    result = run_sweep(named_spec("smoke").with_root_seed(0))
    golden = (GOLDEN_DIR / "BENCH_smoke.golden.json").read_text("utf-8")
    assert dumps(result) == golden, (
        "BENCH_smoke.json diverged from the pre-refactor golden bytes"
    )


def test_e17_fleet_smoke_fold_matches_pre_refactor_golden():
    result = run_fleet(FleetConfig(**SMOKE_FLEET))
    document = json.dumps(result.to_metrics(), indent=2, sort_keys=True) + "\n"
    golden = (GOLDEN_DIR / "BENCH_fleet_smoke.golden.json").read_text("utf-8")
    assert document == golden, (
        "fleet smoke fold diverged from the pre-refactor golden bytes"
    )


def test_e17_streaming_cell_memory(table):
    measured = measure_stream_memory()
    buffered, streaming = measured["buffered"], measured["streaming"]
    # Same stream, same integer tallies — only the latency summary is
    # binned on the streaming path.
    for key in ("events", "requests", "granted", "served", "members"):
        assert streaming[key] == buffered[key], key
    ratio = streaming["peak_kb"] / buffered["peak_kb"]
    table(
        "E17: 100k-event sweep cell, buffered vs streaming metrics",
        ["path", "events", "served", "peak_kb"],
        [
            (path, measured[path]["events"], measured[path]["served"],
             measured[path]["peak_kb"])
            for path in ("buffered", "streaming")
        ],
    )
    assert ratio < MEMORY_BAR, (
        f"streaming peak is {ratio:.2f}x the buffered peak "
        f"(bar: < {MEMORY_BAR})"
    )


def test_e17_clock_heap_entry_footprint_is_pinned():
    per_entry = measure_clock_heap()
    assert per_entry < CLOCK_ENTRY_BYTES, (
        f"one pending timer costs {per_entry:.0f} bytes "
        f"(bar: < {CLOCK_ENTRY_BYTES})"
    )


# ----------------------------------------------------------------------
# CI artifact writer
# ----------------------------------------------------------------------
def main() -> int:
    result = run_sweep(named_spec("smoke").with_root_seed(0))
    golden = (GOLDEN_DIR / "BENCH_smoke.golden.json").read_text("utf-8")
    if dumps(result) != golden:
        print("error: BENCH_smoke bytes diverged from the golden file",
              file=sys.stderr)
        return 1
    measured = measure_stream_memory()
    ratio = measured["streaming"]["peak_kb"] / measured["buffered"]["peak_kb"]
    if ratio >= MEMORY_BAR:
        print(f"error: streaming/buffered peak ratio {ratio:.2f} "
              f"missed the < {MEMORY_BAR} bar", file=sys.stderr)
        return 1
    # One cell per path; peak_kb rides along like the other explicitly
    # machine-dependent resource metrics (see docs/ARTIFACTS.md).
    bench = run_sweep(_STREAM_SPEC)
    from repro.experiments.runner import CellResult, SweepResult

    cells = tuple(
        CellResult(
            cell=cell_result.cell,
            metrics={
                **cell_result.metrics,
                "peak_kb": measured[cell_result.cell.params["path"]]["peak_kb"],
            },
        )
        for cell_result in bench.results
    )
    path = write_json(
        SweepResult(spec=bench.spec, results=cells),
        bench_filename("streaming_metrics"),
    )
    print(f"streaming/buffered peak ratio {ratio:.3f} "
          f"(clock heap {measure_clock_heap():.0f} B/entry)")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
