"""Sweep execution: run every cell of a grid, serially or in parallel.

A *cell runner* is a callable ``(Cell) -> Mapping[str, float]`` living
at module level (so it pickles by reference into worker processes).
Three ship built in:

* ``"session"`` — stands up a full :class:`repro.api.session.Session`
  from the cell's parameters, feeds it a seeded workload scenario, and
  measures the report plus the event-log latencies.  Baseline policies
  (``fifo``, ``free_for_all``) have no server-side mode, so cells
  naming them fall through to the policy runner — one sweep can cross
  the paper's modes *and* the ablation baselines on one axis;
* ``"policy"`` — drives one of the six built-in floor policies bare,
  through the same :class:`~repro.api.policies.PolicyDriver` loop as
  fleet sessions, with the same workload events and no network;
* ``"check"`` — verifies one FCM mode's floor-control net
  (:mod:`repro.check`) and records the verdict census and
  explored-state counts as metrics, so property verdicts ride the same
  BENCH persistence and CI lanes as performance numbers.

:func:`run_sweep` executes the grid with ``workers=1`` (in process) or
across ``concurrent.futures`` worker processes; every cell is fully
determined by its own derived seed, and results are ordered by cell id,
so both paths produce identical :class:`SweepResult` values.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from ..api.config import DynamicsSpec, PartitionSpec
from ..api.policies import PolicyDriver
from ..api.scenario import Scenario
from ..api.session import Session
from ..check.induct import InductiveEngine
from ..check.nets import floor_model
from ..check.props import Verdict
from ..engine import make_engine_policy
from ..errors import ReproError
from ..events.transcript import transcript_filename
from ..events.types import EventKind
from ..metrics.fold import MetricsFold
from ..net.dynamics import GilbertElliott, RampProfile
from ..workload.generator import WorkloadConfig, generate, member_names
from .spec import CAPTURE_PARAMS, Cell, SweepSpec

__all__ = [
    "CellResult",
    "CellRunner",
    "SweepResult",
    "register_runner",
    "resolve_runner",
    "run_check_cell",
    "run_policy_cell",
    "run_session_cell",
    "run_sweep",
    "runner_names",
    "unregister_runner",
]

CellRunner = Callable[[Cell], Mapping[str, float]]

#: Parameters every built-in cell runner understands, with defaults.
#: The dynamics block (burst/ramp/partition) is off by default: 0.0 or
#: ``None`` disables the respective time-varying behaviour.
_SESSION_DEFAULTS: dict[str, Any] = {
    "participants": 8,
    "policy": "free_access",
    "scenario": "seminar",
    "duration": 30.0,
    "latency": 0.02,
    "jitter": 0.0,
    "loss": 0.0,
    "mean_hold": 4.0,
    "request_rate": 0.5,
    "burst_loss": 0.0,
    "burst_mean_good": 4.0,
    "burst_mean_bad": 1.0,
    "ramp_to_latency": None,
    "ramp_start": 0.0,
    "ramp_end": None,
    "partition_start": None,
    "partition_duration": 2.0,
    "transcript_dir": None,
    "trace_dir": None,
    "transcript_capacity": None,
    "engine": "reference",
}

#: Policy names with no FCM mode behind them (driven without a server).
_BASELINE_POLICIES = frozenset({"fifo", "free_for_all"})


def _cell_value(cell: Cell, key: str) -> Any:
    if key in cell.params:
        return cell.params[key]
    return _SESSION_DEFAULTS[key]


def _float_value(cell: Cell, key: str) -> float:
    value = _cell_value(cell, key)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ReproError(
            f"cell {cell.cell_id!r}: parameter {key!r} must be numeric, "
            f"got {value!r}"
        ) from None
    if not math.isfinite(number):
        raise ReproError(
            f"cell {cell.cell_id!r}: parameter {key!r} must be finite, "
            f"got {value!r}"
        )
    return number


def _check_known_params(cell: Cell) -> None:
    """Reject parameters the built-in runners would silently ignore —
    a typo must fail loudly, not persist a mislabeled BENCH cell."""
    unknown = sorted(set(cell.params) - set(_SESSION_DEFAULTS))
    if unknown:
        raise ReproError(
            f"cell {cell.cell_id!r}: unknown parameters {unknown!r}; "
            f"the built-in runners understand {sorted(_SESSION_DEFAULTS)}"
        )


def _cell_dynamics(cell: Cell, duration: float) -> list:
    """The cell's network-dynamics specs (empty when all knobs are off).

    ``burst_loss > 0`` enables the Gilbert–Elliott bursty-loss model —
    the good state keeps the cell's static ``loss`` (so crossing both
    knobs stays honest: bursts only ever *add* loss), the bad state
    drops at ``burst_loss``.  ``ramp_to_latency`` enables a latency
    ramp (``ramp_end=None`` rides to the end of the run), and
    ``partition_start`` a partition-and-heal window cutting every
    student off from the server.
    """
    specs: list[DynamicsSpec | PartitionSpec] = []
    burst_loss = _float_value(cell, "burst_loss")
    if burst_loss > 0:
        specs.append(
            DynamicsSpec(
                GilbertElliott(
                    loss_bad=burst_loss,
                    mean_good=_float_value(cell, "burst_mean_good"),
                    mean_bad=_float_value(cell, "burst_mean_bad"),
                )
            )
        )
    if _cell_value(cell, "ramp_to_latency") is not None:
        ramp_end = _cell_value(cell, "ramp_end")
        specs.append(
            DynamicsSpec(
                RampProfile(
                    "base_latency",
                    start=_float_value(cell, "ramp_start"),
                    end=float(ramp_end) if ramp_end is not None else duration,
                    to_value=_float_value(cell, "ramp_to_latency"),
                )
            )
        )
    if _cell_value(cell, "partition_start") is not None:
        specs.append(
            PartitionSpec(
                start=_float_value(cell, "partition_start"),
                duration=_float_value(cell, "partition_duration"),
            )
        )
    return specs


def _workload(cell: Cell):
    """The cell's seeded event list plus its member roster."""
    members = int(_float_value(cell, "participants"))
    if members < 1:
        raise ReproError(f"cell {cell.cell_id!r}: participants must be >= 1")
    config = WorkloadConfig(
        members=members,
        duration=_float_value(cell, "duration"),
        seed=cell.seed,
        mean_hold=_float_value(cell, "mean_hold"),
        request_rate=_float_value(cell, "request_rate"),
    )
    events = generate(str(_cell_value(cell, "scenario")), config)
    return events, member_names(members), config


def run_session_cell(cell: Cell) -> Mapping[str, float]:
    """Execute one cell as a full DMPS session over the simulated LAN.

    Requests are sent without an explicit mode so the server arbitrates
    under the cell's session policy — the only thing that varies along
    a policy axis is the policy itself.

    Metrics stream: a :class:`~repro.metrics.fold.MetricsFold` seeded
    with the cell's roster subscribes to the session bus before the
    scenario runs, so latencies/served/fairness accumulate per event
    instead of re-scanning the transcript afterwards.  With the
    ``transcript_capacity`` execution parameter set, the bus keeps
    only a bounded ring and peak memory per cell drops from O(events)
    to O(members) — the fold saw every event, so the metrics (and the
    cell's seed) are byte-identical either way.
    """
    _check_known_params(cell)
    policy = str(_cell_value(cell, "policy"))
    if policy in _BASELINE_POLICIES:
        return run_policy_cell(cell)
    events, members, config = _workload(cell)
    builder = (
        Session.builder(chair="teacher")
        .seed(cell.seed)
        .link(
            latency=_float_value(cell, "latency"),
            jitter=_float_value(cell, "jitter"),
            loss=_float_value(cell, "loss"),
        )
        .policy(policy)
        .engine(str(_cell_value(cell, "engine")))
    )
    capacity = _cell_value(cell, "transcript_capacity")
    if capacity is not None:
        builder.transcript_capacity(int(capacity))
    builder.participants(*members)
    builder.dynamics(*_cell_dynamics(cell, config.duration))
    scenario = Scenario.from_workload(
        [replace(event, mode=None) for event in events], name=cell.cell_id
    )
    with builder.build() as session:
        # The cell's own fold: seeded with the student roster (the
        # chair is not part of the fairness population) and fed by a
        # filtered subscription — no buffering, no post-hoc scan.
        fold = MetricsFold(mode="exact", members=members)
        unsubscribe = session.bus.subscribe(
            fold.add,
            kinds=(EventKind.REQUEST, EventKind.GRANT, EventKind.TOKEN_PASS),
        )
        scenario.run(session, until=config.duration + 1.0)
        unsubscribe()
        report = session.report()
        blocked = float(session.network.stats.blocked)
        transcript_dir = _cell_value(cell, "transcript_dir")
        if transcript_dir is not None:
            # Transcript capture: persist this cell's replayable JSONL
            # record next to the BENCH numbers.  Metrics are untouched,
            # so capturing cannot perturb the byte-identical BENCH
            # guarantee.
            directory = Path(str(transcript_dir))
            directory.mkdir(parents=True, exist_ok=True)
            session.save_transcript(
                directory / transcript_filename(cell.cell_id)
            )
        trace_dir = _cell_value(cell, "trace_dir")
        if trace_dir is not None:
            # Trace capture mirrors transcript capture: the causal
            # plane is a pure read of the retained events, so the
            # TRACE document rides along without perturbing metrics —
            # and ``repro trace record`` on the captured transcript
            # reproduces its bytes exactly.
            from ..trace import save_trace, trace_filename

            directory = Path(str(trace_dir))
            directory.mkdir(parents=True, exist_ok=True)
            save_trace(
                directory / trace_filename(cell.cell_id),
                session.tracer().spans(),
                meta={"seed": cell.seed},
            )
    return {
        "requests": float(report.requests),
        "granted": float(report.granted),
        "queued": float(report.queued),
        "denied": float(report.denied),
        "served": float(fold.served),
        **fold.latency_summary(),
        "fairness": fold.fairness(),
        "loss_rate": report.loss_rate,
        "net_latency": report.mean_latency,
        "blocked": blocked,
        "messages_sent": float(report.messages_sent),
        "posts": float(report.posts_accepted),
        "sim_time": report.duration,
        "network_modeled": 1.0,
    }


def run_policy_cell(cell: Cell) -> Mapping[str, float]:
    """Execute one cell against a bare built-in floor policy (no network).

    The same seeded workload runs through
    :class:`~repro.api.policies.PolicyDriver`, the loop fleet sessions
    share; latency is queue wait alone, which is exactly what makes the
    baselines comparable to the session cells' request-to-service
    times.  Network parameters (latency/jitter/loss) do not apply here;
    cells record ``network_modeled = 0`` so a grid crossing baselines
    with network axes stays honest in the persisted BENCH document.
    ``transcript_dir``/``trace_dir`` likewise do not apply: a bare
    policy keeps no event bus, so baseline cells save no transcript and
    no trace.
    """
    _check_known_params(cell)
    policy = make_engine_policy(
        str(_cell_value(cell, "policy")),
        engine=str(_cell_value(cell, "engine")),
    )
    events, members, config = _workload(cell)
    rows = [(event.time, event.member, event.action) for event in events]
    # No FloorEvent objects in this loop, so the kernel is fed through
    # its low-level requested/serve primitives — same pairing, same
    # fairness population, same bytes as the session runner's
    # subscription-fed fold.
    driver = PolicyDriver(policy, MetricsFold(mode="exact", members=members), rows)
    driver.advance(math.inf)
    fold = driver.fold
    stats = policy.stats
    return {
        "requests": float(driver.requests),
        "granted": float(stats.granted),
        "queued": float(stats.queued),
        "denied": float(stats.denied),
        "served": float(fold.served),
        **fold.latency_summary(),
        "fairness": fold.fairness(),
        "loss_rate": 0.0,
        "net_latency": 0.0,
        "blocked": 0.0,
        "messages_sent": 0.0,
        "posts": float(driver.posts),
        "sim_time": config.duration,
        "network_modeled": 0.0,
    }


#: Parameters the ``check`` cell runner understands, with defaults.
_CHECK_DEFAULTS: dict[str, Any] = {
    "mode": "equal_control",
    "members": 4,
    "budget": 20_000,
}


def run_check_cell(cell: Cell) -> Mapping[str, float]:
    """Verify one FCM mode's floor-control net and report the verdicts.

    Parameters: ``mode`` (one of the four FCM modes), ``members``
    (model size), ``budget`` (explicit-fallback state cap).  Metrics
    are the verdict census (``proved``/``violated``/``unknown``), how
    many of the proofs were inductive (``proved_inductively`` — the
    acceptance bar: the mutex must not depend on budget survival),
    the explored-state count of the explicit fallback, and
    ``mutex_proved`` for the headline property.  Everything is
    deterministic, so check sweeps persist byte-identically like any
    other BENCH document.
    """
    # Capture params (transcript_dir/trace_dir) may ride any sweep's
    # base — e.g. ``repro sweep --transcripts`` over a check spec.  A
    # check cell keeps no event bus, so like the baseline runner it
    # skips capture rather than rejecting the whole sweep.
    unknown = sorted(set(cell.params) - set(_CHECK_DEFAULTS) - CAPTURE_PARAMS)
    if unknown:
        raise ReproError(
            f"cell {cell.cell_id!r}: unknown parameters {unknown!r}; "
            f"the check runner understands {sorted(_CHECK_DEFAULTS)}"
        )

    def value(key: str) -> Any:
        return cell.params.get(key, _CHECK_DEFAULTS[key])

    members = int(value("members"))
    budget = int(value("budget"))
    model = floor_model(str(value("mode")), members=members)
    report = InductiveEngine(model.net).check(model.properties, budget=budget)
    census = {verdict.value: 0 for verdict in Verdict}
    inductive = 0
    for verdict in report.verdicts:
        census[verdict.verdict.value] += 1
        if verdict.verdict is Verdict.PROVED and verdict.method in (
            "invariant",
            "state-equation",
        ):
            inductive += 1
    mutex = report.verdict_for(model.mutex.name)
    return {
        "properties": float(len(report.verdicts)),
        "proved": float(census["proved"]),
        "violated": float(census["violated"]),
        "unknown": float(census["unknown"]),
        "proved_inductively": float(inductive),
        "mutex_proved": float(mutex.verdict is Verdict.PROVED),
        "states_explored": float(report.explored),
    }


# ----------------------------------------------------------------------
# Runner registry
# ----------------------------------------------------------------------
_RUNNERS: dict[str, CellRunner] = {}


def register_runner(name: str, runner: CellRunner) -> None:
    """Register a cell runner under a unique name.

    The callable must be defined at module level: worker processes
    receive it by pickled reference.

    Re-registering the *same* callable under the same name is a no-op,
    so module-level registration stays safe when worker processes
    (spawn start method) or tools re-import this module; only a
    *conflicting* registration is an error.

    Raises
    ------
    ReproError
        If the name is already taken by a different runner.
    """
    existing = _RUNNERS.get(name)
    if existing is not None and existing is not runner:
        raise ReproError(f"cell runner {name!r} is already registered")
    _RUNNERS[name] = runner


def unregister_runner(name: str) -> None:
    """Remove a registered runner (no-op when unknown)."""
    _RUNNERS.pop(name, None)


def resolve_runner(name: str) -> CellRunner:
    """Look up a registered cell runner by name.

    Lazily-provided runners (:data:`_LAZY_RUNNERS`) are imported and
    registered on first use — the fleet runner lives in
    :mod:`repro.fabric`, which itself builds on the sweep machinery,
    so an eager import here would be circular.

    Raises
    ------
    ReproError
        On an unknown runner name (the message lists what exists).
    """
    if name not in _RUNNERS and name in _LAZY_RUNNERS:
        _LAZY_RUNNERS[name]()
    if name not in _RUNNERS:
        raise ReproError(
            f"unknown cell runner {name!r}; registered: {runner_names()}"
        )
    return _RUNNERS[name]


def runner_names() -> list[str]:
    """All registered (or lazily available) runner names, sorted."""
    return sorted(set(_RUNNERS) | set(_LAZY_RUNNERS))


def _register_fleet_runner() -> None:
    from ..fabric.fleet import run_fleet_cell

    register_runner("fleet", run_fleet_cell)


#: Runners registered on first resolve to avoid import cycles.
_LAZY_RUNNERS: dict[str, Callable[[], None]] = {
    "fleet": _register_fleet_runner,
}


register_runner("session", run_session_cell)
register_runner("policy", run_policy_cell)
register_runner("check", run_check_cell)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellResult:
    """One executed cell: the grid point plus its measured metrics."""

    cell: Cell
    metrics: Mapping[str, float]


@dataclass(frozen=True)
class SweepResult:
    """Every cell of one sweep, in grid enumeration order.

    Enumeration order follows the declared axes (so numeric axes read
    4, 8, 16 — not the lexicographic 16, 4, 8) and depends only on the
    spec and the root seed — never on worker count or completion order
    — which is what the byte-identical persistence guarantee rests on.
    """

    spec: SweepSpec
    results: tuple[CellResult, ...]

    def __len__(self) -> int:
        return len(self.results)

    def cell(self, cell_id: str) -> CellResult:
        """Look up one cell's result by its canonical id.

        Raises
        ------
        ReproError
            On an unknown cell id (the message lists what exists).
        """
        for result in self.results:
            if result.cell.cell_id == cell_id:
                return result
        known = [result.cell.cell_id for result in self.results]
        raise ReproError(f"no cell {cell_id!r} in this sweep; cells: {known}")

    def metric_names(self) -> list[str]:
        """Union of metric keys across cells, sorted."""
        names: set[str] = set()
        for result in self.results:
            names.update(result.metrics)
        return sorted(names)

    def aggregate(self, by: str) -> dict[Any, dict[str, float]]:
        """Mean of every metric, grouped by one parameter's value.

        Groups appear in cell-id order; cells missing the parameter or
        a metric are simply skipped for that entry.
        """
        grouped: dict[Any, list[CellResult]] = {}
        for result in self.results:
            if by not in result.cell.params:
                continue
            grouped.setdefault(result.cell.params[by], []).append(result)
        aggregated: dict[Any, dict[str, float]] = {}
        for value, members in grouped.items():
            means: dict[str, float] = {}
            for name in self.metric_names():
                samples = [
                    member.metrics[name]
                    for member in members
                    if name in member.metrics
                ]
                if samples:
                    means[name] = sum(samples) / len(samples)
            aggregated[value] = means
        return aggregated

    def table(self, by: str | None = None, metrics: list[str] | None = None) -> str:
        """Render the comparison table the CLI prints.

        One row per cell, or one row per group value when ``by`` names
        a parameter to aggregate over; ``metrics`` restricts and orders
        the columns.
        """
        columns = metrics if metrics is not None else self.metric_names()
        if by is None:
            headers = ["cell"] + columns
            rows = [
                (result.cell.cell_id, result.metrics) for result in self.results
            ]
        else:
            headers = [by] + columns
            rows = [
                (str(value), means) for value, means in self.aggregate(by).items()
            ]
        label_width = max([len(headers[0])] + [len(label) for label, __ in rows])
        lines = [
            " | ".join(
                [f"{headers[0]:>{label_width}}"]
                + [f"{header:>12}" for header in headers[1:]]
            )
        ]
        lines.append("-" * len(lines[0]))
        for label, values in rows:
            cells = [f"{label:>{label_width}}"]
            for name in columns:
                value = values.get(name)
                cells.append(f"{'--':>12}" if value is None else f"{value:>12.4f}")
            lines.append(" | ".join(cells))
        return "\n".join(lines)


def _pool_context():
    """The multiprocessing context for sweep workers.

    Prefers ``fork`` (workers inherit ``sys.path`` and any runners the
    parent registered after import); falls back to the platform
    default elsewhere.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _run_cell(runner: CellRunner, cell: Cell) -> CellResult:
    metrics = dict(runner(cell))
    for name, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ReproError(
                f"cell {cell.cell_id!r}: metric {name!r} must be a number, "
                f"got {value!r}"
            )
    return CellResult(cell=cell, metrics={k: float(v) for k, v in metrics.items()})


def run_sweep(spec: SweepSpec, workers: int = 1) -> SweepResult:
    """Execute every cell of ``spec``; results follow grid order.

    ``workers=1`` runs in-process; ``workers>1`` fans cells out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  Each cell is
    deterministic given its derived seed, so the two paths return
    identical results (pinned by the determinism tests).
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers!r}")
    runner = resolve_runner(spec.runner)
    cells = spec.cells()
    if workers == 1 or len(cells) <= 1:
        results = [_run_cell(runner, cell) for cell in cells]
    else:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(cells)), mp_context=_pool_context()
        ) as pool:
            futures = [pool.submit(_run_cell, runner, cell) for cell in cells]
            results = [future.result() for future in futures]
    results.sort(key=lambda result: result.cell.index)
    return SweepResult(spec=spec, results=tuple(results))
