"""Run the repo benchmark and print every metric by name with its unit.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--out PATH]

Each workload runs in its own child process (``child.py``), one child
at a time, with this checkout's ``src`` on ``PYTHONPATH``.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced rep with
``--trace 1``.  Everything measured, plus the host (nproc, Python,
git commit), is also written to ``--out``.  The exit code is non-zero
when any correctness check fails.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from child import END_TO_END
from layers import LAYERS, PER_LAYER
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Wall-clock guard per child process, in seconds.
CHILD_TIMEOUT = 170.0


def host_info() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def run_child(name: str, args: argparse.Namespace, env: dict) -> dict | None:
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale,
    ]
    if args.inject_fault:
        command.append("--inject-fault")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish in {CHILD_TIMEOUT:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def print_table(result: dict) -> None:
    print(
        f"{result['workload']}: {result['reps']} timed reps of "
        f"{result['ops']} {result['ops_unit']}, "
        f"{result['failed']} of {result['attempted']} ops failed"
    )
    for name, unit, _ in END_TO_END:
        print(f"  {name:<18} {result['end_to_end'][name]:>14.6g} {unit}")
    values = result.get("per_layer")
    if values:
        for layer in LAYERS:
            print(
                f"  {layer + '.calls':<15} {values[layer + '.calls']:>9.0f}"
                f"  .self_s {values[layer + '.self_s']:>8.4f} s"
                f"  .share {values[layer + '.share']:>7.4f}"
            )
        layer_rows = {
            f"{layer}.{part}" for layer in LAYERS for part in ("calls", "self_s", "share")
        }
        for name, unit, _ in PER_LAYER:
            if name not in layer_rows:
                print(f"  {name:<18} {values[name]:>14.6g} {unit}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def summary(results: list[dict], trace: int) -> dict:
    section, declared = ("per_layer", PER_LAYER) if trace else ("end_to_end", END_TO_END)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name, unit, _ in declared:
            metrics[prefix + name] = {"value": result[section][name], "unit": unit}
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="extend", nargs="+", choices=NAMES,
        help="workloads to run (default: all six)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="measured seconds per workload (default 10)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="1 adds the traced reps and reports per-layer metrics (default 1)",
    )
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_perf.json")
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke runs every workload at a seconds-long size (the test path)",
    )
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="perturb one rep's output to prove the correctness gate fails",
    )
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    # Compile once up front, so no child charges compilation to set-up.
    compileall.compile_dir(src, quiet=1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH")) if part
    )
    results = []
    for name in args.workload or NAMES:
        result = run_child(name, args, env)
        if result is None:
            return 1
        print_table(result)
        results.append(result)
    document = {
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "workloads": {result["workload"]: result for result in results},
    }
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    final = summary(results, args.trace)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
