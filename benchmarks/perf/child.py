"""Measure one workload in this process and print one JSON result line.

Run by ``run.py``, one child process per workload, with the repo's
``src`` on ``PYTHONPATH``.  The protocol, in order:

1. import the workload's modules (``setup.import_s``);
2. one untimed warm-up rep at full size (a process's first serve soak
   runs slower than later ones: 3.0 s against 2.2 s at 6000 rounds);
3. timed reps with nothing wrapped, at least three and until the time
   budget is spent (half of it with ``--trace 1``); each rep builds its
   inputs (``setup.build_s``, reported as the median) and then runs
   (``wall_s``, reported as the fastest rep: on a shared host, noise
   only ever slows a rep down, and it comes in bursts of seconds that
   can cover half a run);
4. with ``--trace 1``, traced reps (``layers.py``) for the rest of the
   budget; the per-layer numbers come from the median one;
5. the correctness gate: every rep's ops and deterministic fold must
   be identical, no op may fail, and the workload's own checks pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import layers
from workloads import NAMES, WORKLOADS, Rep, Workload

ROOT = Path(__file__).resolve().parents[2]
MIN_REPS = 3

#: End-to-end metrics: ``(name, unit, better)``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def run_rep(workload: Workload, traced: bool = False) -> Rep:
    """Build and run one rep; a traced rep keeps its profiler aggregates."""
    from repro.trace import timing

    profiler = timing.Profiler() if traced else None
    gc.collect()
    with layers.wrapped() if traced else nullcontext():
        started = perf_counter()
        inputs = workload.build()
        built = perf_counter()
        with timing.activate(profiler) if traced else nullcontext():
            out = workload.run(inputs)
        finished = perf_counter()
    rep = workload.measure(inputs, out)
    rep.build_s = built - started
    rep.wall_s = finished - built
    if traced:
        rep.profile = profiler.aggregates()
    return rep


def run_reps(workload: Workload, budget: float, minimum: int, traced: bool) -> list[Rep]:
    """Reps until ``minimum`` ran and ``budget`` seconds passed."""
    reps = []
    started = perf_counter()
    while len(reps) < minimum or perf_counter() - started < budget:
        reps.append(run_rep(workload, traced))
    return reps


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop, to compare hosts."""
    times = []
    for _ in range(3):
        started = perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(perf_counter() - started)
    return statistics.median(times)


def gate(workload: Workload, reps: list[Rep], inject_fault: bool) -> list[str]:
    """Every correctness failure of the run, as messages (empty: correct)."""
    if inject_fault:
        reps[-1].fold += " "
    failures = []
    if len({rep.ops for rep in reps}) != 1:
        failures.append(f"ops differ across reps: {sorted({r.ops for r in reps})}")
    if len({rep.fold for rep in reps}) != 1:
        failures.append("deterministic outputs differ across reps")
    failed = sum(rep.failed for rep in reps)
    if failed:
        failures.append(f"{failed} of {sum(r.attempted for r in reps)} ops failed")
    return failures + workload.check()


def measure(args: argparse.Namespace, workdir: Path) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.scale == "smoke", workdir)
    started = perf_counter()
    workload.load()
    import_s = perf_counter() - started

    warmup = run_rep(workload)
    budget = args.seconds / 2 if args.trace else args.seconds
    timed = run_reps(workload, budget, MIN_REPS, traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = min(rep.wall_s for rep in timed)
    build_s = statistics.median(rep.build_s for rep in timed)
    result = {
        "workload": workload.name,
        "ops_unit": workload.ops_unit,
        "ops": timed[0].ops,
        "reps": len(timed),
        "rep_wall_s": [rep.wall_s for rep in timed],
        "rep_build_s": [rep.build_s for rep in timed],
        "attempted": sum(rep.attempted for rep in timed),
        "failed": sum(rep.failed for rep in timed),
        "end_to_end": {
            "setup_s": import_s + build_s,
            "wall_s": wall_s,
            "ops_per_s": timed[0].ops / wall_s,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    checked = [warmup, *timed]
    failures = []
    if args.trace:
        from repro.metrics.stats import percentile

        originals = layers.snapshot()
        traced = run_reps(workload, args.seconds - budget, 1, traced=True)
        if any(now is not then for now, then in zip(layers.snapshot(), originals)):
            failures.append("a wrapped function was not restored after tracing")
        checked += traced
        rep = sorted(traced, key=lambda r: r.wall_s)[(len(traced) - 1) // 2]
        rtt = [sample for r in timed for sample in r.rtt]
        metrics = dict.fromkeys((name for name, _, _ in layers.PER_LAYER), 0.0)
        metrics.update(layers.per_layer(rep.profile, rep.wall_s))
        metrics.update(rep.counters)
        metrics.update({
            "serve.rtt_p50_ms": percentile(rtt, 50) * 1000,
            "serve.rtt_p99_ms": percentile(rtt, 99) * 1000,
            "serve.rtt_n": len(rtt),
            "setup.import_s": import_s,
            "setup.build_s": build_s,
            "trace_overhead": rep.wall_s / statistics.median(r.wall_s for r in timed) - 1,
            "host.calib_s": calibrate(),
        })
        result["traced_reps"] = len(traced)
        result["per_layer"] = {name: metrics[name] for name, _, _ in layers.PER_LAYER}
    failures += gate(workload, checked, args.inject_fault)
    result["failures"] = failures
    result["correct"] = not failures
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)
    workdir = Path(tempfile.mkdtemp(prefix=".perf-work-", dir=ROOT))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
