"""The six benchmark workloads, each driven through public ``repro`` APIs.

Every workload has the same steps, which the child process
(``child.py``) times separately:

``load()``
    import what the workload needs (part of set-up time);
``build()``
    make one rep's inputs from the seed (set-up time);
``run(inputs)``
    the timed region: one rep of the workload;
``measure(inputs, out)``
    turn the rep's outputs into a :class:`Rep` (untimed);
``check()``
    extra correctness checks after the timed reps (untimed).

``repro`` is imported only inside ``load()``, so the parent process can
read :data:`NAMES` without importing the system under test.  Functions
that the traced rep wraps (``layers.py``) are looked up on their module
at call time (``self.analysis.find_deadlocks``), so the wrappers are
seen.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any


def canonical(value: Any) -> str:
    """Byte-stable JSON, the form every deterministic fold is compared in.

    Deliberately not ``repro``'s own encoder: the gate should not rely
    on the code it checks."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass
class Rep:
    """What one rep did, in the units the end-to-end metrics use."""

    ops: int
    attempted: int
    failed: int
    #: Canonical JSON of the deterministic outputs; identical across reps.
    fold: str
    #: Per-layer counts and diagnostics (``net.sent``, ``trace.spans``...).
    counters: dict[str, float] = field(default_factory=dict)
    #: Client round-trip samples in seconds (serve only).
    rtt: list[float] = field(default_factory=list)
    build_s: float = 0.0
    wall_s: float = 0.0
    #: Profiler aggregates of a traced rep (``{span: {calls, total, self}}``).
    profile: dict[str, dict[str, float]] = field(default_factory=dict)


class Workload:
    """One workload at one scale (``smoke`` is the seconds-long test size)."""

    name = ""
    ops_unit = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def load(self) -> None:
        raise NotImplementedError

    def build(self) -> Any:
        raise NotImplementedError

    def run(self, inputs: Any) -> Any:
        raise NotImplementedError

    def measure(self, inputs: Any, out: Any) -> Rep:
        raise NotImplementedError

    def check(self) -> list[str]:
        return []


class LectureSession(Workload):
    """A simulated lecture over the session facade: heartbeats through
    the clock, net and presence layers dominate; arbitration is rare."""

    name = "lecture_session"
    ops_unit = "messages"

    def load(self) -> None:
        from repro import api, workload
        from repro.events import replay

        self.api, self.workload, self.replay = api, workload, replay

    def build(self):
        members, duration, rate = (4, 20.0, 6.0) if self.smoke else (32, 600.0, 0.5)
        builder = (
            self.api.Session.builder()
            .policy("equal_control")
            .engine("reference")
            .link(latency=0.02)
            .heartbeats(0.25)
            .seed(self.seed)
        )
        builder.participants(*self.workload.member_names(members))
        session = builder.build()
        script = self.workload.scenario(
            "lecture",
            self.workload.WorkloadConfig(
                members=members, request_rate=rate, duration=duration,
                seed=self.seed,
            ),
        )
        requests = sum(1 for step in script if step.action == "request_floor")
        stats = session.network.stats
        before = (stats.sent, stats.delivered, stats.dropped)
        return session, script, requests, before

    def run(self, inputs):
        session, script, _, _ = inputs
        script.run(session)
        session.close()
        return session

    def measure(self, inputs, session) -> Rep:
        _, _, requests, (sent0, delivered0, dropped0) = inputs
        self.last_session = session
        stats = session.network.stats
        decisions = sum(len(c.decisions) for c in session.clients.values())
        counters = {
            "net.sent": stats.sent - sent0,
            "net.delivered": stats.delivered - delivered0,
            "net.dropped": stats.dropped - dropped0,
        }
        fold = canonical({
            "metrics": session.metrics.to_metrics(),
            "net": counters,
            "events": len(session.bus),
            "decisions": decisions,
        })
        return Rep(
            ops=counters["net.sent"],
            attempted=requests,
            failed=max(0, requests - decisions),
            fold=fold,
            counters=counters,
        )

    def check(self) -> list[str]:
        path = self.last_session.save_transcript(self.workdir / "lecture.jsonl")
        if not self.replay.replay_transcript(path).ok:
            return ["saved lecture transcript does not replay ok"]
        return []


class FleetWorkload(Workload):
    """A contended fleet of lecture sessions folded through one engine."""

    ops_unit = "events"
    engine = ""
    sessions = 0

    def load(self) -> None:
        from repro import fabric

        self.fabric = fabric

    def config(self, engine: str, sessions: int):
        return self.fabric.FleetConfig(
            sessions=sessions, members=8, scenario="lecture", request_rate=6,
            duration=10 if self.smoke else 60, shards=4, ring_capacity=256,
            engine=engine, seed=self.seed,
        )

    def build(self):
        sessions = 16 if self.smoke else self.sessions
        return self.fabric.Fleet(self.config(self.engine, sessions))

    def run(self, fleet):
        return fleet.run()

    def measure(self, fleet, result) -> Rep:
        m = result.metrics
        decided = m.granted + m.queued + m.denied + m.aborted
        return Rep(
            ops=m.events,
            attempted=m.requests,
            failed=max(0, m.requests - decided),
            fold=canonical(result.to_metrics()),
            counters={"events.evicted": m.evicted},
        )

    def check(self) -> list[str]:
        folds = {
            engine: canonical(
                self.fabric.Fleet(self.config(engine, 12)).run().to_metrics()
            )
            for engine in ("batch", "compiled")
        }
        if folds["batch"] != folds["compiled"]:
            return ["compiled fleet fold differs from the batch fold"]
        return []


class FleetReference(FleetWorkload):
    """Reference arbitration, ring bus, metrics fold and shard merges."""

    name = "fleet_reference"
    engine = "batch"
    sessions = 400


class FleetCompiled(FleetWorkload):
    """The same fleet on ``repro.engine``, bypassing reference arbitration."""

    name = "fleet_compiled"
    engine = "compiled"
    sessions = 1200


class ServeLockstep(Workload):
    """A closed-loop lockstep soak over loopback TCP with two connections:
    each client sends its next frame only after the round's tick."""

    name = "serve_lockstep"
    ops_unit = "frames"

    def load(self) -> None:
        from repro import serve

        self.serve = serve

    def build(self):
        return self.serve.SoakSpec(
            clients=2, rounds=40 if self.smoke else 2000, request_prob=0.9,
            hold_rounds=1, disconnects=0, seed=self.seed,
        )

    def run(self, spec):
        rtt: list[float] = []
        errors = [0]
        with client_probe(self.serve.ServeClient, rtt, errors):
            result = self.serve.run_soak_sync(spec)
        return result, rtt, errors[0]

    def measure(self, spec, out) -> Rep:
        result, rtt, errors = out
        metrics = result.to_metrics()
        timing = result.serve.stats_timing
        frames = int(metrics["frames_in"])
        return Rep(
            ops=frames,
            attempted=frames,
            failed=errors + int(metrics["evicted_timeout"]),
            fold=canonical(metrics),
            counters={
                "serve.frames_out": timing["frames_out"],
                "serve.coalesced": timing["coalesced"],
            },
            rtt=rtt,
        )


@contextmanager
def client_probe(cls, rtt: list[float], errors: list[int]):
    """Stamp each frame a client sends and the next lockstep tick it
    receives, appending the round trip to ``rtt``; count error frames.

    Patches the client class only, and holds nothing across an
    ``await`` but a timestamp.
    """
    saved = {name: vars(cls)[name] for name in ("request", "release", "tick", "recv")}
    sent: dict[Any, float] = {}

    def stamped(original):
        async def send(self, *args, **kwargs):
            sent[self] = perf_counter()
            return await original(self, *args, **kwargs)
        return send

    async def recv(self, timeout=None):
        frame = await saved["recv"](self, timeout)
        kind = frame.get("type")
        if kind == "tick":
            started = sent.pop(self, None)
            if started is not None:
                rtt.append(perf_counter() - started)
        elif kind == "error":
            errors[0] += 1
        return frame

    try:
        for name in ("request", "release", "tick"):
            setattr(cls, name, stamped(saved[name]))
        cls.recv = recv
        yield
    finally:
        for name, original in saved.items():
            setattr(cls, name, original)


class NetVerify(Workload):
    """Petri-net verification only: named suites, the legacy BFS analyses
    and the compiled explorer on one product net (seed-independent)."""

    name = "net_verify"
    ops_unit = "markings"

    def load(self) -> None:
        from repro import check
        from repro.petri import analysis

        self.check_api, self.analysis = check, analysis

    def build(self):
        cycles, small = (4, 3) if self.smoke else (7, 5)
        product = self.check_api.product_cycles(cycles, 4)
        props = [self.check_api.DeadlockFree()] + [
            self.check_api.PlaceBound(place, 1) for place in sorted(product.places)
        ]
        # is_bounded's ancestor scan is quadratic in search depth, so it
        # gets the smaller net.
        bounded_net = self.check_api.product_cycles(small, 4)
        return product, bounded_net, props, 4 ** cycles, 4 ** small

    def run(self, inputs):
        product, bounded_net, props, states, _ = inputs
        budget = states + 1
        suites = [
            self.check_api.run_suite("figure1"),
            self.check_api.run_suite("floor_safety", members=3 if self.smoke else 6),
        ]
        deadlocks = self.analysis.find_deadlocks(product, max_nodes=budget)
        live = self.analysis.is_live(product, max_nodes=budget)
        report = self.check_api.ExplicitEngine(product, max_states=budget).check(props)
        bounded = self.analysis.is_bounded(bounded_net, max_nodes=budget)
        return suites, deadlocks, live, report, bounded

    def measure(self, inputs, out) -> Rep:
        _, _, _, states, bounded_states = inputs
        suites, deadlocks, live, report, bounded = out
        proved = self.check_api.Verdict.PROVED
        verdicts = [
            verdict.verdict
            for suite in suites
            for _, case in suite.reports
            for verdict in case.verdicts
        ] + [verdict.verdict for verdict in report.verdicts]
        expected = [
            deadlocks.complete and not deadlocks and deadlocks.explored == states,
            live.live is True and live.explored == states,
            report.complete and report.explored == states,
            bounded is True,
        ]
        failed = sum(v is not proved for v in verdicts) + expected.count(False)
        # is_bounded reports no count; on a bounded net its search visits
        # every reachable marking, which product_cycles fixes at 4**cycles.
        petri_states = deadlocks.explored + live.explored + bounded_states
        check_states = report.explored + sum(
            case.explored for suite in suites for _, case in suite.reports
        )
        fold = canonical({
            "suites": [suite.dumps() for suite in suites],
            "deadlocks": [len(deadlocks), deadlocks.complete, deadlocks.explored],
            "live": [live.live, live.complete, live.explored],
            "explicit": [[v.prop.name, v.verdict.value] for v in report.verdicts],
            "bounded": bounded,
        })
        return Rep(
            ops=petri_states + check_states,
            attempted=len(verdicts) + len(expected),
            failed=failed,
            fold=fold,
            counters={"check.states": check_states, "petri.states": petri_states},
        )


class TranscriptReplay(Workload):
    """The read side of the events layer: what ``repro replay`` and
    ``repro trace record`` do with a saved transcript."""

    name = "transcript_replay"
    ops_unit = "events"

    def load(self) -> None:
        from repro import engine, workload
        from repro.events import replay, transcript
        from repro.trace import causal

        self.engine, self.workload = engine, workload
        self.replay, self.transcript, self.causal = replay, transcript, causal

    def build(self):
        config = self.workload.WorkloadConfig(
            members=16 if self.smoke else 128, request_rate=12,
            duration=60 if self.smoke else 900, seed=self.seed,
        )
        policy = self.engine.compile_policy("equal_control")
        for event in self.workload.generate("lecture", config):
            if event.action == "request":
                policy.request(event.member, event.time)
            elif event.action == "release":
                policy.release(event.member, event.time)
        events = policy.events()
        path = self.transcript.save_transcript(
            self.workdir / "replay.jsonl", events,
            meta=self.replay.build_meta(events),
        )
        return path, len(events)

    def run(self, inputs):
        path, _ = inputs
        report = self.replay.replay_transcript(path)
        spans = self.causal.CausalTracer.from_events(
            self.transcript.load_transcript(path).events, self.seed
        ).spans()
        return report, spans

    def measure(self, inputs, out) -> Rep:
        _, recorded = inputs
        report, spans = out
        ok = report.ok and report.events == recorded
        return Rep(
            ops=report.events,
            attempted=report.events,
            failed=0 if ok else report.events,
            fold=canonical({
                "metrics": dict(report.replayed_metrics),
                "violations": len(report.replayed_violations),
                "spans": len(spans),
                "tail": [span.to_dict() for span in spans[-3:]],
            }),
            counters={"trace.spans": len(spans)},
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        LectureSession, FleetReference, FleetCompiled,
        ServeLockstep, NetVerify, TranscriptReplay,
    )
}
NAMES = tuple(WORKLOADS)
