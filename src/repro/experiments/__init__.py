"""Parameter sweeps over sessions: grids, workers, persisted benches.

The sweep engine is the experiment layer on top of the
:mod:`repro.api` facade::

    from repro.experiments import Axis, SweepSpec, run_sweep, write_json

    spec = SweepSpec(
        name="modes_vs_baselines",
        axes=(Axis("policy", ("equal_control", "fifo", "free_for_all")),),
        base={"participants": 8, "scenario": "storm", "duration": 10.0},
        root_seed=7,
    )
    result = run_sweep(spec, workers=4)
    print(result.table(by="policy"))
    write_json(result, "BENCH_modes_vs_baselines.json")

Three layers:

* :mod:`repro.experiments.spec` — declarative grids
  (:class:`Axis` × :class:`Axis` → :class:`Cell`) with per-cell seeds
  derived from one root seed;
* :mod:`repro.experiments.runner` — cell runners (full sessions, bare
  policies, or anything registered) executed serially or across worker
  processes with identical results;
* :mod:`repro.experiments.persist` — byte-stable, schema-versioned
  ``BENCH_*.json`` and CSV output.

Cell metrics come from the shared streaming fold in
:mod:`repro.metrics`, whose ``jain_fairness``, ``latency_summary`` and
``percentile`` this package re-exports.

:mod:`repro.experiments.specs` names the standard grids the CLI
(``repro sweep``) and the CI benchmark lane run.
"""

from ..metrics import jain_fairness, latency_summary, percentile
from .persist import (
    SCHEMA,
    SCHEMA_VERSION,
    bench_filename,
    csv_text,
    dumps,
    load_document,
    to_document,
    write_csv,
    write_json,
)
from .runner import (
    CellResult,
    CellRunner,
    SweepResult,
    register_runner,
    resolve_runner,
    run_check_cell,
    run_policy_cell,
    run_session_cell,
    run_sweep,
    runner_names,
    unregister_runner,
)
from .spec import Axis, Cell, SweepSpec, axes_from_mapping, derive_seed
from .specs import named_spec, register_spec, spec_names, unregister_spec

__all__ = [
    "Axis",
    "Cell",
    "CellResult",
    "CellRunner",
    "SCHEMA",
    "SCHEMA_VERSION",
    "SweepResult",
    "SweepSpec",
    "axes_from_mapping",
    "bench_filename",
    "csv_text",
    "derive_seed",
    "dumps",
    "jain_fairness",
    "latency_summary",
    "load_document",
    "named_spec",
    "percentile",
    "register_runner",
    "register_spec",
    "resolve_runner",
    "run_check_cell",
    "run_policy_cell",
    "run_session_cell",
    "run_sweep",
    "runner_names",
    "spec_names",
    "to_document",
    "unregister_runner",
    "unregister_spec",
    "write_csv",
    "write_json",
]
