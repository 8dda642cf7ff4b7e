"""Persisted benchmark results: schema-versioned ``BENCH_*.json`` + CSV.

One sweep serializes to one JSON document —

.. code-block:: json

    {
      "schema": "repro-dmps/bench",
      "schema_version": 1,
      "spec": {"name": "...", "runner": "...", "root_seed": 0,
               "base": {"...": "..."}, "axes": {"policy": ["..."]}},
      "cells": [
        {"id": "policy=fifo", "seed": 123, "params": {"...": "..."},
         "metrics": {"grant_p95": 0.0}}
      ]
    }

— with sorted keys and cells in grid enumeration order, so the bytes
depend only on the spec and root seed: re-running the same sweep (at
any worker count) reproduces the file exactly, and CI can diff perf
trajectories across commits.  The CSV flattens the same cells, one row
each, for spreadsheet work.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path
from typing import Any

from ..errors import ReproError
from .runner import CellResult, SweepResult
from .spec import Cell, SweepSpec

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "bench_filename",
    "csv_text",
    "dumps",
    "load_document",
    "one_cell_result",
    "to_document",
    "write_csv",
    "write_json",
]

#: Document family tag every bench file carries.
SCHEMA = "repro-dmps/bench"
#: Bump on any incompatible change to the document layout.
SCHEMA_VERSION = 1


def one_cell_result(
    name: str,
    runner: str,
    params: dict[str, Any],
    seed: int,
    metrics: dict[str, float],
) -> SweepResult:
    """A run that is not a sweep (a fleet, a serve soak) as a synthetic
    one-cell sweep result, so it persists through the same schema.

    The one cell is named after ``runner``, and ``seed`` is the run's
    actual root seed (not a derived one): the document says exactly
    what reproduces it.
    """
    spec = SweepSpec(name=name, axes=(), base=params, runner=runner, root_seed=seed)
    cell = Cell(index=0, cell_id=runner, params=params, seed=seed)
    return SweepResult(spec=spec, results=(CellResult(cell=cell, metrics=metrics),))


def to_document(result: SweepResult) -> dict[str, Any]:
    """The sweep as a plain JSON-ready document (see module docs)."""
    spec = result.spec
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "spec": {
            "name": spec.name,
            "runner": spec.runner,
            "root_seed": spec.root_seed,
            "base": dict(spec.base),
            "axes": {axis.name: list(axis.values) for axis in spec.axes},
        },
        "cells": [
            {
                "id": cell_result.cell.cell_id,
                "seed": cell_result.cell.seed,
                "params": dict(cell_result.cell.params),
                "metrics": dict(cell_result.metrics),
            }
            for cell_result in result.results
        ],
    }


def dumps(result: SweepResult) -> str:
    """Serialize to the canonical byte-stable JSON text."""
    return json.dumps(to_document(result), indent=2, sort_keys=True) + "\n"


def write_json(result: SweepResult, path: str | Path) -> Path:
    """Write the canonical JSON document; returns the path written."""
    target = Path(path)
    target.write_text(dumps(result), encoding="utf-8")
    return target


def csv_text(result: SweepResult) -> str:
    """The sweep as CSV: one row per cell, sorted columns."""
    param_names: set[str] = set()
    for cell_result in result.results:
        param_names.update(cell_result.cell.params)
    params = sorted(param_names)
    metrics = result.metric_names()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["cell", "seed"] + params + metrics)
    for cell_result in result.results:
        row: list[Any] = [cell_result.cell.cell_id, cell_result.cell.seed]
        row += [cell_result.cell.params.get(name, "") for name in params]
        row += [cell_result.metrics.get(name, "") for name in metrics]
        writer.writerow(row)
    return buffer.getvalue()


def write_csv(result: SweepResult, path: str | Path) -> Path:
    """Write the CSV flattening; returns the path written."""
    target = Path(path)
    target.write_text(csv_text(result), encoding="utf-8")
    return target


def load_document(path: str | Path) -> dict[str, Any]:
    """Read a persisted bench document back, checking its schema.

    Raises
    ------
    ReproError
        When the file is not a bench document or its schema version is
        newer than this code understands.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ReproError(f"{path}: not valid JSON ({error})") from None
    if not isinstance(document, dict) or document.get("schema") != SCHEMA:
        raise ReproError(f"{path}: not a {SCHEMA!r} document")
    version = document.get("schema_version")
    if not isinstance(version, int) or version > SCHEMA_VERSION:
        raise ReproError(
            f"{path}: schema version {version!r} is newer than the "
            f"supported {SCHEMA_VERSION}"
        )
    return document


def bench_filename(spec_name: str) -> str:
    """Canonical ``BENCH_<name>.json`` filename for a sweep name."""
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", spec_name).strip("_") or "sweep"
    return f"BENCH_{safe}.json"
