"""Shared measurement harness for the experiment benchmarks.

E14–E17 each grew their own ad-hoc ``perf_counter`` / ``tracemalloc``
scaffolding; this module is the one copy they now share.  Two rules
keep the measurements honest:

* **Wall clock is never persisted as a claim** — rates measured here
  feed acceptance *bars* (≥ Nx) and machine-dependent bench cells,
  never the deterministic folds the golden files pin.
* **tracemalloc is started and stopped around exactly the measured
  call** — the helpers return ``(result, bytes)`` so a bench can keep
  asserting on the workload's output while reading its footprint.

The timing *plane* of :mod:`repro.trace` is the runtime counterpart:
same wall-clock discipline, applied to live sessions instead of
benches.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Any, Callable, Mapping

__all__ = [
    "best_of_rates",
    "heap_delta",
    "live_heap",
    "measure_seconds",
    "peak_memory",
]


def measure_seconds(fn: Callable[..., Any], *args: Any, **kwargs: Any):
    """Run ``fn(*args, **kwargs)`` once; returns ``(result, seconds)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def best_of_rates(
    units: int, runs: Mapping[str, Callable[[], float]], repeats: int = 3
) -> dict[str, float]:
    """Best-of-N throughput of each run: ``max(units / run())`` over
    ``repeats``, the runs taking turns repeat by repeat.

    Each ``run`` executes one full workload and returns the wall seconds
    it measured (so callers control exactly which region is timed —
    e.g. E16's ``drive`` excludes engine construction).  Taking the
    *best* repeat is deliberate: scheduler noise only ever slows a run
    down, so the max rate is the least-noisy estimate of the code's
    speed.  Taking turns keeps a ratio of two rates fair: a slow spell
    of the host then lands on repeats of both runs, not on every repeat
    of the faster one.
    """
    if repeats < 1:
        raise ValueError("best_of_rates needs at least one repeat")
    best = dict.fromkeys(runs, 0.0)
    for __ in range(repeats):
        for name, run in runs.items():
            best[name] = max(best[name], units / run())
    return best


def peak_memory(fn: Callable[..., Any], *args: Any, **kwargs: Any):
    """Run ``fn`` under tracemalloc; returns ``(result, peak_bytes)``.

    Peak covers the whole call — transient buffers count, which is the
    point: E17's buffered-vs-streaming comparison is about transients.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def live_heap(fn: Callable[..., Any], *args: Any, **kwargs: Any):
    """Run ``fn`` under tracemalloc; returns ``(result, current_bytes)``.

    *Current* (still-reachable) bytes at return, not the peak — the
    right probe for E15's ring-mode claim, where transient churn is
    fine but retained state must stay flat.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current


def heap_delta(fn: Callable[..., Any], *args: Any, **kwargs: Any):
    """Run ``fn`` under tracemalloc; returns ``(result, delta_bytes)``.

    Traced bytes after the call minus before it — isolates what the
    call itself allocated and kept (E17's per-timer footprint) from
    whatever the tracer found already live when it started.
    """
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn(*args, **kwargs)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before
