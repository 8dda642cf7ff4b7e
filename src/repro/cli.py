"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo classroom``
    Run a seeded classroom session on the :mod:`repro.api` facade and
    print the whiteboard, the event transcript, and the session report.
``demo lecture``
    Run the DOCPN lecture with and without the global clock; print the
    skew comparison.
``demo scenario``
    Run a generated workload scenario (``lecture`` / ``seminar`` /
    ``panel`` / ``storm``) through the session facade and print the
    report.
``schedule``
    Compile the Figure 1 presentation, print its schedule as a Gantt
    chart and its synchronous sets.
``dot``
    Print the Figure 1 presentation net as Graphviz DOT (pipe into
    ``dot -Tpng`` to render).
``policies``
    List the registered floor policies (:mod:`repro.api.policies`).
``sweep``
    Run a parameter sweep (named via ``--spec``/``--smoke`` or inline
    via ``--axis``), print the comparison table, and persist the
    schema-versioned ``BENCH_*.json`` (:mod:`repro.experiments`).
    Network-dynamics grids ship as named specs (``loss_burst``,
    ``delay_ramp``, ``partition_heal``) and as cell parameters
    (``burst_loss``, ``ramp_to_latency``, ``partition_start``, ...)
    usable with ``--axis``/``--set``; the verification workload ships
    as ``floor_safety`` (the ``check`` cell runner).
``check``
    Verify property suites (:mod:`repro.check`): per-property verdicts
    — ``PROVED`` (inductive certificate or complete exploration),
    ``VIOLATED`` (with a counterexample firing trace), ``UNKNOWN``
    (budget ran out; never silently truncated) — optionally persisted
    as a schema-versioned ``CHECK_*.json``.  ``--smoke`` runs the
    Figure 1 net plus the floor-safety suite, the CI gate proving
    floor-token mutual exclusion for all four FCM modes.  Exit code 1
    means a property is VIOLATED — or UNKNOWN under ``--strict``
    (implied by ``--smoke``: the gate requires proof, not budget
    survival).
``replay``
    Re-run a saved transcript (:mod:`repro.events`): recompute its
    metrics and stream-check verdicts from the persisted events alone
    and compare byte-for-byte against what the live run recorded.
    Exit code 1 means the replay diverged — the transcript does not
    reproduce the recorded run.  Save transcripts with
    ``Session.save_transcript``, the sweep ``--transcripts DIR``
    option, or ``EventBus.save``.
``trace``
    Work with causal trace documents (:mod:`repro.trace`):
    ``record`` derives the deterministic ``TRACE_*.json`` from a saved
    transcript, ``top`` prints the self-time (or causal) summary of a
    trace, ``export`` converts one to Chrome trace-event JSON for
    Perfetto/about:tracing, and ``diff`` compares two causal traces
    span by span (exit 1 on divergence).
``serve``
    Host a live DMPS session over TCP (:mod:`repro.serve`): external
    clients handshake with newline-delimited JSON frames and their
    request/release/leave verbs run through the real arbitration
    stack, with watermark backpressure and ring transcripts.
    ``--smoke`` instead runs the deterministic lockstep soak (many
    in-process clients against one server) and persists the
    schema-versioned ``BENCH_serve.json`` — two runs with the same
    seed write byte-identical documents, which is what CI pins.
``report``
    Run the seeded classroom and print only the session report.

All commands are deterministic; ``--seed`` varies the workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys

from .api import Scenario, Session, at, policy_names
from .check import (
    Verdict,
    check_filename,
    run_suite,
    suite_names,
)
from .core.modes import FCMMode
from .errors import ReproError
from .events import replay_transcript
from .experiments import (
    SweepSpec,
    axes_from_mapping,
    bench_filename,
    named_spec,
    run_sweep,
    spec_names,
    write_csv,
    write_json,
)
from .fabric import FleetConfig, run_fleet, write_fleet_json
from .petri.docpn import DOCPNSystem
from .petri.render import gantt, to_dot
from .temporal.schedule import compute_schedule
from .workload.generator import WorkloadConfig, member_names
from .workload.generator import scenario as workload_scenario
from .workload.presentations import figure1_presentation

__all__ = ["main"]

#: Which initial floor policy each workload scenario assumes.
_SCENARIO_POLICY = {
    "lecture": "equal_control",
    "seminar": "equal_control",
    "panel": "free_access",
    "storm": "equal_control",
}


def _run_classroom(seed: int) -> Session:
    """A small scripted classroom on the facade; returns the session."""
    rng = random.Random(seed)
    builder = (
        Session.builder(chair="teacher")
        .seed(seed)
        .heartbeats(0.25)
        .clock_sync(2.0)
    )
    names = ["teacher", "alice", "bob", "carol"]
    for name in names:
        builder.participant(name, latency=0.01 + rng.uniform(0, 0.02))
    session = builder.build()
    script = Scenario(name="classroom").add(
        at(1.2, "set_mode", mode=FCMMode.EQUAL_CONTROL)
    )
    t = 1.5
    for speaker in names:
        script.add(
            at(t, "request_floor", speaker),
            at(t + 1.0, "post", speaker, content=f"{speaker}'s point"),
            at(t + 2.0, "release_floor", speaker),
        )
        t += 2.5
    script.run(session, until=t + 2.0)
    return session


def _cmd_demo_classroom(args: argparse.Namespace) -> int:
    session = _run_classroom(args.seed)
    print("whiteboard:")
    for entry in session.board():
        print(f"  t={entry.accepted_at:6.2f}  {entry.author:>8}: {entry.content}")
    print("\ntranscript (floor events):")
    for event in session.log:
        print(f"  t={event.time:6.2f}  {event.kind.value:<12} "
              f"{event.member:<8} {event.detail}")
    print()
    print(session.report().render())
    return 0


def _cmd_demo_lecture(args: argparse.Namespace) -> int:
    from .clock.virtual import VirtualClock

    offsets = [0.3, -0.25, 0.1, 0.0]
    drifts = [0.01, -0.008, 0.002, 0.0]
    for use_gc in (False, True):
        clock = VirtualClock()
        system = DOCPNSystem(clock, use_global_clock=use_gc)
        for index, (offset, drift) in enumerate(zip(offsets, drifts)):
            system.add_site(
                f"site{index}",
                figure1_presentation(),
                clock_offset=offset,
                drift_rate=drift,
            )
        system.run(until=120.0)
        label = "ON " if use_gc else "OFF"
        print(f"global clock {label}: max skew "
              f"{system.max_skew() * 1000:7.1f} ms, holds {system.total_holds()}")
    return 0


def _cmd_demo_scenario(args: argparse.Namespace) -> int:
    if args.members < 1:
        print("error: --members must be at least 1", file=sys.stderr)
        return 2
    try:
        config = WorkloadConfig(
            members=args.members, duration=args.duration, seed=args.seed
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    script = workload_scenario(args.name, config)
    if args.name == "lecture":
        # The lecture chair posts throughout: under equal control they
        # must hold the floor first (students then queue behind them).
        # t=0 sorts ahead of every workload event; it runs at warmup.
        script.add(at(0.0, "request_floor", "teacher"))
    session = (
        Session.builder(chair="teacher")
        .seed(args.seed)
        .participants(*member_names(config.members))
        .policy(_SCENARIO_POLICY[args.name])
        .build()
    )
    with session:
        script.run(session)
        print(f"scenario {args.name!r}: {len(script)} scripted steps, "
              f"{config.members} members")
        print(session.report().render())
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    ocpn = figure1_presentation()
    schedule = compute_schedule(ocpn)
    print(gantt(schedule.intervals, width=args.width))
    print("\nsynchronous sets:")
    for sync_set in schedule.synchronous_sets():
        print(f"  t={sync_set.time:6.1f}  {', '.join(sync_set.media)}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    ocpn = figure1_presentation()
    print(to_dot(ocpn.net, media_places=ocpn.media_of_place))
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    for name in policy_names():
        print(name)
    return 0


def _parse_scalar(text: str):
    """CLI value -> typed scalar: int, float, bool, None, or str."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """Resolve the requested spec: --smoke / --spec NAME / inline axes."""
    if args.smoke:
        spec = named_spec("smoke")
    elif args.spec is not None:
        spec = named_spec(args.spec)
    else:
        axes: dict[str, list] = {}
        for declaration in args.axis:
            name, __, values = declaration.partition("=")
            if not values:
                raise ValueError(
                    f"--axis needs name=v1,v2,..., got {declaration!r}"
                )
            if name in axes:
                raise ValueError(f"--axis {name!r} declared twice")
            axes[name] = [_parse_scalar(value) for value in values.split(",")]
        base = {}
        for assignment in args.set:
            key, separator, value = assignment.partition("=")
            if not separator:
                raise ValueError(f"--set needs key=value, got {assignment!r}")
            base[key] = _parse_scalar(value)
        spec = SweepSpec(
            name=args.name,
            axes=axes_from_mapping(axes),
            base=base,
            runner=args.runner,
        )
    if args.transcripts is not None:
        spec = dataclasses.replace(
            spec, base={**dict(spec.base), "transcript_dir": args.transcripts}
        )
    if args.traces is not None:
        # Capture parameter (never part of the seed): each session
        # cell's causal TRACE document rides along, byte-identical to
        # `repro trace record` on the captured transcript.
        spec = dataclasses.replace(
            spec, base={**dict(spec.base), "trace_dir": args.traces}
        )
    if args.ring is not None:
        # Execution parameter (never part of the seed): session cells
        # keep a bounded transcript ring while the streaming metrics
        # fold consumes every event — same BENCH bytes, O(ring) memory.
        spec = dataclasses.replace(
            spec, base={**dict(spec.base), "transcript_capacity": args.ring}
        )
    return spec.with_root_seed(args.seed)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.list:
        for name in spec_names():
            print(name)
        return 0
    if not (args.smoke or args.spec is not None or args.axis):
        print("error: pick a sweep: --smoke, --spec NAME, or --axis "
              f"name=v1,v2 (named specs: {', '.join(spec_names())})",
              file=sys.stderr)
        return 2
    # Usage errors (bad flags, unknown names) exit 2; anything a cell
    # runner raises beyond ReproError is a real defect and propagates.
    try:
        spec = _sweep_spec_from_args(args)
        spec.validate()
    except (ValueError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        result = run_sweep(spec, workers=args.workers)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"sweep {spec.name!r}: {len(result)} cells, "
          f"runner {spec.runner!r}, root seed {spec.root_seed}, "
          f"workers {args.workers}")
    print()
    print(result.table(by=args.group_by))
    out = args.out if args.out is not None else bench_filename(spec.name)
    print(f"\nwrote {write_json(result, out)}")
    if args.csv is not None:
        print(f"wrote {write_csv(result, args.csv)}")
    return 0


#: The suites ``repro check --smoke`` runs (the CI gate).
_SMOKE_SUITES = ("figure1", "floor_safety")


def _cmd_check(args: argparse.Namespace) -> int:
    if args.list:
        for name in suite_names():
            print(name)
        return 0
    names = list(args.suite)
    if args.smoke:
        names = [name for name in _SMOKE_SUITES if name not in names] + names
    if not names:
        print("error: pick a suite: --smoke or --suite NAME "
              f"(named suites: {', '.join(suite_names())})", file=sys.stderr)
        return 2
    # The smoke gate *proves*: an UNKNOWN verdict (budget survival) must
    # fail CI just like a violation, or the guarantee silently erodes.
    strict = args.smoke or args.strict
    try:
        results = [
            run_suite(name, members=args.members, budget=args.budget)
            for name in names
        ]
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    violated = False
    for result in results:
        counts = result.counts()
        size = "n/a" if result.members is None else str(result.members)
        print(f"suite {result.suite.name!r}: {counts['proved']} proved, "
              f"{counts['violated']} violated, {counts['unknown']} unknown "
              f"(members {size}, budget {result.budget})")
        print()
        print(result.table())
        for __, report in result.reports:
            for verdict in report.verdicts:
                if verdict.verdict is Verdict.VIOLATED and verdict.counterexample:
                    trace = " -> ".join(verdict.counterexample.trace) or "(initial)"
                    print(f"  counterexample [{verdict.prop.name}]: {trace}")
        print()
        out = args.out if args.out is not None else check_filename(
            result.suite.name
        )
        if args.out is not None and len(results) > 1:
            # One explicit --out path with several suites would clobber;
            # suffix each file with its suite name instead.
            out = f"{args.out}.{result.suite.name}.json"
        print(f"wrote {result.write_json(out)}")
        violated = violated or result.any_violated
        if strict and counts["unknown"]:
            print(f"error: suite {result.suite.name!r} left "
                  f"{counts['unknown']} properties UNKNOWN "
                  f"(strict mode requires proof)", file=sys.stderr)
            violated = True
    return 1 if violated else 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    values = dict(
        sessions=args.sessions,
        shards=args.shards,
        members=args.members,
        policy=args.policy,
        scenario=args.scenario,
        duration=args.duration,
        tick=args.tick,
        ring_capacity=args.ring,
        request_rate=args.request_rate,
        engine=args.engine,
        seed=args.seed,
    )
    if args.smoke:
        # The CI lane: a small contended fleet that finishes in seconds
        # but still exercises sharding, batching, and ring eviction.
        values.update(
            sessions=500, shards=4, members=8, scenario="lecture",
            duration=20.0, request_rate=6.0,
        )
    try:
        config = FleetConfig(**values)
        config.validate()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = run_fleet(
        config,
        workers=args.workers,
        trace=args.trace is not None,
        profile=args.profile,
        progress=args.progress,
    )
    print(result.render())
    out = args.out if args.out is not None else bench_filename("fleet")
    print(f"\nwrote {write_fleet_json(result, out)}")
    if args.trace is not None:
        from .trace import save_trace

        # The metadata is config-derived only, so serial and sharded
        # runs write byte-identical causal documents; the wall-clock
        # profile joins the artifact only under the explicit opt-in
        # (the include_timing convention).
        meta = {
            "seed": config.seed,
            "sessions": config.sessions,
            "shards": config.shards,
            "policy": config.policy,
            "scenario": config.scenario,
            "engine": config.engine,
        }
        path = save_trace(
            args.trace,
            result.spans,
            meta=meta,
            profile=result.profile if args.profile else None,
        )
        print(f"wrote {path}")
    if args.profile:
        from .trace import top_report

        print()
        print(top_report(result.profile))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    # Every named transcript is checked even when an earlier one is
    # unreadable — one corrupt file must not mask a divergence in the
    # next.  Exit: 2 if any file failed to load, else 1 if any replay
    # diverged, else 0.
    exit_code = 0
    for index, path in enumerate(args.transcript):
        if index:
            print()
        try:
            report = replay_transcript(path)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            exit_code = 2
            continue
        print(report.render())
        if not report.ok:
            print(f"error: replay of {path} diverged from the recorded run",
                  file=sys.stderr)
            exit_code = max(exit_code, 1)
    return exit_code


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from pathlib import Path
    from types import SimpleNamespace

    from .events.transcript import load_transcript
    from .trace import CausalTracer, save_trace, trace_filename

    try:
        document = load_transcript(args.transcript)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session_meta = document.meta.get("session") or {}
    # The seed binds span ids to the recorded run: transcripts saved by
    # Session.save_transcript carry it; hand-built ones fall back to
    # the CLI --seed.
    seed = int(session_meta.get("seed", args.seed))
    tracer = CausalTracer.from_events(document.events, seed=seed)
    monitor = document.meta.get("monitor") or {}
    rows = monitor.get("violations") or []
    if rows:
        tracer.add_violations(
            SimpleNamespace(time=row[0], invariant=row[1], detail=row[2])
            for row in rows
        )
    if args.out is not None:
        out = args.out
    else:
        stem = Path(args.transcript).stem
        stem = stem[len("TRANSCRIPT_"):] if stem.startswith("TRANSCRIPT_") else stem
        out = trace_filename(stem)
    path = save_trace(out, tracer.spans(), meta={"seed": seed})
    print(f"wrote {path} ({len(tracer.spans())} causal spans, seed {seed})")
    return 0


def _cmd_trace_top(args: argparse.Namespace) -> int:
    from .trace import causal_summary, load_trace, top_report

    try:
        document = load_trace(args.trace)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if document.profile:
        print(top_report(document.profile, limit=args.limit))
    else:
        print(causal_summary(document.spans))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .trace import chrome_trace, load_trace

    try:
        document = load_trace(args.trace)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    exported = chrome_trace(document.spans)
    out = Path(args.out)
    out.write_text(json.dumps(exported) + "\n", "utf-8")
    print(f"wrote {out} ({len(exported['traceEvents'])} trace events; "
          f"load in Perfetto or about:tracing)")
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .trace import diff_traces, load_trace

    try:
        left = load_trace(args.a)
        right = load_trace(args.b)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    lines = diff_traces(left.spans, right.spans)
    if not lines:
        print(f"traces agree: {len(left.spans)} spans in both")
        return 0
    print(f"traces diverge ({len(lines)} differences shown):")
    for line in lines:
        print(line)
    return 1


def _cmd_report(args: argparse.Namespace) -> int:
    print(_run_classroom(args.seed).report().render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import ServeConfig, SessionServer, SoakSpec, run_soak_sync
    from .serve.persist import write_soak_json

    if args.smoke or args.clients is not None:
        # The soak path: a deterministic lockstep run, persisted as a
        # BENCH artifact.  --smoke is the CI preset; --clients scales.
        spec = SoakSpec(
            clients=args.clients if args.clients is not None else 64,
            rounds=args.rounds if args.rounds is not None else 12,
            disconnects=args.disconnects,
            policy=args.policy,
            tick=args.tick,
            ring_capacity=args.ring,
            seed=args.seed,
        )
        try:
            spec.validate()
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        profile = args.profile or args.trace is not None
        result = run_soak_sync(spec, profile=profile)
        print(result.render())
        out = args.out if args.out is not None else bench_filename("serve")
        path = write_soak_json(result, out, include_timing=args.timing)
        print(f"\nwrote {path}")
        if args.trace is not None:
            from .trace import CausalTracer, save_trace

            tracer = CausalTracer.from_events(
                result.serve.events, seed=spec.seed
            )
            meta = {
                "seed": spec.seed,
                "clients": spec.clients,
                "rounds": spec.rounds,
                "policy": spec.policy,
            }
            trace_path = save_trace(
                args.trace,
                tracer.spans(),
                meta=meta,
                profile=result.profile if args.profile else None,
            )
            print(f"wrote {trace_path}")
        if args.profile:
            from .trace import top_report

            print()
            print(top_report(result.profile))
        return 0

    # The live path: bind, serve until --duration (or Ctrl-C), report.
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            policy=args.policy,
            mode="live",
            speed=args.speed,
            ring_capacity=args.ring,
            idle_timeout=args.idle_timeout,
        )
        config.validate()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    async def _serve_live() -> "object":
        server = SessionServer(config)
        await server.start()
        print(
            f"serving {config.policy} on {config.host}:{server.port} "
            f"(speed x{config.speed:g}"
            + (
                f", stopping after {args.duration:g}s"
                if args.duration is not None
                else ", Ctrl-C to stop"
            )
            + ")",
            flush=True,
        )
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()
        return server.result()

    try:
        result = asyncio.run(_serve_live())
    except KeyboardInterrupt:
        return 0
    metrics = result.to_metrics()
    print(
        f"served {int(metrics['connections'])} connection(s); "
        f"{int(metrics['events'])} floor events "
        f"({result.evicted_events} evicted from the ring)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DMPS floor control & DOCPN reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run a scripted scenario")
    demo_sub = demo.add_subparsers(dest="scenario", required=True)
    demo_sub.add_parser("classroom").set_defaults(handler=_cmd_demo_classroom)
    demo_sub.add_parser("lecture").set_defaults(handler=_cmd_demo_lecture)
    scenario = demo_sub.add_parser(
        "scenario", help="run a generated workload through the facade"
    )
    scenario.add_argument(
        "--name", choices=sorted(_SCENARIO_POLICY), default="seminar"
    )
    scenario.add_argument("--members", type=int, default=8)
    scenario.add_argument("--duration", type=float, default=60.0)
    scenario.set_defaults(handler=_cmd_demo_scenario)

    schedule = subparsers.add_parser("schedule", help="print the Figure 1 schedule")
    schedule.add_argument("--width", type=int, default=48)
    schedule.set_defaults(handler=_cmd_schedule)

    dot = subparsers.add_parser("dot", help="print the Figure 1 net as DOT")
    dot.set_defaults(handler=_cmd_dot)

    policies = subparsers.add_parser(
        "policies", help="list registered floor policies"
    )
    policies.set_defaults(handler=_cmd_policies)

    sweep = subparsers.add_parser(
        "sweep", help="run a parameter sweep and persist BENCH json"
    )
    sweep.add_argument(
        "--smoke", action="store_true",
        help="run the tiny CI smoke grid (alias for --spec smoke)",
    )
    sweep.add_argument("--spec", help="a named spec (see --list)")
    sweep.add_argument("--list", action="store_true",
                       help="list named specs and exit")
    sweep.add_argument(
        "--axis", action="append", default=[], metavar="NAME=V1,V2",
        help="inline axis (repeatable); crossed into the grid",
    )
    sweep.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="inline base parameter shared by every cell (repeatable)",
    )
    sweep.add_argument("--name", default="inline",
                       help="name of an inline sweep (default: inline)")
    sweep.add_argument("--runner", default="session",
                       help="cell runner of an inline sweep")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = in-process)")
    sweep.add_argument("--group-by", metavar="AXIS",
                       help="aggregate the table over one axis")
    sweep.add_argument("--out", help="BENCH json path "
                                     "(default: BENCH_<spec>.json)")
    sweep.add_argument("--csv", help="also write a CSV flattening here")
    sweep.add_argument(
        "--transcripts", metavar="DIR",
        help="save each session cell's replayable transcript JSONL "
             "(TRANSCRIPT_<cell>.jsonl) into this directory",
    )
    sweep.add_argument(
        "--traces", metavar="DIR",
        help="save each session cell's deterministic causal trace "
             "(TRACE_<cell>.json) into this directory",
    )
    sweep.add_argument(
        "--ring", type=int, metavar="N",
        help="bound each session cell's transcript to an N-event ring; "
             "metrics stream through the shared fold, so the persisted "
             "BENCH bytes are identical and peak memory drops to O(N)",
    )
    sweep.set_defaults(handler=_cmd_sweep)

    fleet = subparsers.add_parser(
        "fleet", help="run a sharded multi-session fleet and persist "
                      "BENCH_fleet json (repro.fabric)"
    )
    fleet.add_argument("--sessions", type=int, default=100,
                       help="how many concurrent DMPS sessions")
    fleet.add_argument("--shards", type=int, default=1,
                       help="shared-nothing shards the fleet splits into")
    fleet.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial)")
    fleet.add_argument("--members", type=int, default=4,
                       help="participants per session")
    fleet.add_argument("--policy", default="equal_control",
                       help="floor policy every session runs")
    fleet.add_argument("--scenario", default="seminar",
                       choices=("lecture", "seminar", "panel", "storm"),
                       help="workload scenario (seeded per session)")
    fleet.add_argument("--duration", type=float, default=30.0,
                       help="simulated span (virtual seconds)")
    fleet.add_argument("--tick", type=float, default=1.0,
                       help="lockstep tick (arbitration batch interval)")
    fleet.add_argument("--ring", type=int, default=256,
                       help="per-session transcript ring capacity")
    fleet.add_argument("--request-rate", type=float, default=0.5,
                       help="requests per member per minute (lecture)")
    fleet.add_argument("--engine", default="batch",
                       choices=("batch", "compiled", "facade"),
                       help="per-session machinery")
    fleet.add_argument(
        "--smoke", action="store_true",
        help="run the CI smoke fleet (500 contended lecture sessions, "
             "4 shards, 20 s simulated)",
    )
    fleet.add_argument("--out", help="BENCH json path "
                                     "(default: BENCH_fleet.json)")
    fleet.add_argument(
        "--trace", metavar="PATH",
        help="also write the fleet's deterministic causal trace "
             "(byte-identical serial vs. sharded) to this TRACE json",
    )
    fleet.add_argument(
        "--profile", action="store_true",
        help="run the wall-clock timing plane (per-layer self time; "
             "printed as a top report, and embedded in --trace output)",
    )
    fleet.add_argument(
        "--progress", action="store_true",
        help="stream a heartbeat to stderr (per tick serially, per "
             "shard completion when sharded)",
    )
    fleet.set_defaults(handler=_cmd_fleet)

    replay = subparsers.add_parser(
        "replay", help="re-run saved transcripts and verify they "
                       "reproduce the recorded metrics and verdicts"
    )
    replay.add_argument("transcript", nargs="+",
                        help="one or more TRANSCRIPT_*.jsonl files")
    replay.set_defaults(handler=_cmd_replay)

    check = subparsers.add_parser(
        "check", help="verify property suites and persist CHECK json"
    )
    check.add_argument(
        "--smoke", action="store_true",
        help="run the CI gate: the Figure 1 net + the floor-safety suite",
    )
    check.add_argument(
        "--suite", action="append", default=[], metavar="NAME",
        help="a named property suite (repeatable; see --list)",
    )
    check.add_argument("--list", action="store_true",
                       help="list named suites and exit")
    check.add_argument("--members", type=int, default=3,
                       help="model size of member-parameterized suites")
    check.add_argument("--budget", type=int, default=50_000,
                       help="explicit-engine state budget (fallback only)")
    check.add_argument(
        "--strict", action="store_true",
        help="also fail (exit 1) on UNKNOWN verdicts; implied by --smoke",
    )
    check.add_argument("--out", help="verdict json path "
                                     "(default: CHECK_<suite>.json)")
    check.set_defaults(handler=_cmd_check)

    trace = subparsers.add_parser(
        "trace", help="record, inspect, export and diff trace documents "
                      "(repro.trace)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    record = trace_sub.add_parser(
        "record", help="derive the deterministic causal TRACE json "
                       "from a saved transcript"
    )
    record.add_argument("transcript", help="a TRANSCRIPT_*.jsonl file")
    record.add_argument("-o", "--out",
                        help="TRACE json path (default: TRACE_<name>.json)")
    record.set_defaults(handler=_cmd_trace_record)
    top = trace_sub.add_parser(
        "top", help="self-time table of a profiled trace (or the "
                    "causal summary of a causal-only one)"
    )
    top.add_argument("trace", help="a TRACE_*.json file")
    top.add_argument("--limit", type=int, default=20,
                     help="rows in the self-time table")
    top.set_defaults(handler=_cmd_trace_top)
    export = trace_sub.add_parser(
        "export", help="convert a trace to Chrome trace-event JSON "
                       "(loadable in Perfetto / about:tracing)"
    )
    export.add_argument("trace", help="a TRACE_*.json file")
    export.add_argument("-o", "--out", required=True,
                        help="Chrome trace-event json path")
    export.set_defaults(handler=_cmd_trace_export)
    diff = trace_sub.add_parser(
        "diff", help="compare two causal traces span by span "
                     "(exit 1 on divergence)"
    )
    diff.add_argument("a", help="first TRACE_*.json")
    diff.add_argument("b", help="second TRACE_*.json")
    diff.set_defaults(handler=_cmd_trace_diff)

    serve = subparsers.add_parser(
        "serve",
        help="host a live session over TCP, or run the lockstep soak",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="live mode: bind address")
    serve.add_argument("--port", type=int, default=0,
                       help="live mode: TCP port (0 picks a free one)")
    serve.add_argument("--policy", default="equal_control",
                       help="FCM mode policy the session runs")
    serve.add_argument("--speed", type=float, default=1.0,
                       help="live mode: virtual seconds per wall second")
    serve.add_argument("--ring", type=int, default=4096,
                       help="transcript ring capacity")
    serve.add_argument("--idle-timeout", type=float, default=None,
                       help="live mode: evict members silent this long")
    serve.add_argument("--duration", type=float, default=None,
                       help="live mode: stop after this many wall seconds")
    serve.add_argument(
        "--smoke", action="store_true",
        help="run the deterministic lockstep soak preset "
             "(64 clients x 12 rounds) and write BENCH_serve.json",
    )
    serve.add_argument("--clients", type=int, default=None,
                       help="soak: concurrent client connections")
    serve.add_argument("--rounds", type=int, default=None,
                       help="soak: lockstep rounds to run")
    serve.add_argument("--disconnects", type=int, default=4,
                       help="soak: scripted mid-hold hard disconnects")
    serve.add_argument("--tick", type=float, default=1.0,
                       help="soak: virtual seconds per lockstep round")
    serve.add_argument("--out", help="soak: BENCH json path "
                       "(default BENCH_serve.json)")
    serve.add_argument(
        "--timing", action="store_true",
        help="soak: include wall-clock metrics in the artifact "
             "(off by default so identical seeds write identical bytes)",
    )
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="soak: also write a TRACE_*.json here")
    serve.add_argument(
        "--profile", action="store_true",
        help="soak: profile the serve hot path (serve.dispatch / "
             "serve.flush / serve.evict) and print the top table",
    )
    serve.set_defaults(handler=_cmd_serve)

    report = subparsers.add_parser("report", help="session report only")
    report.set_defaults(handler=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
