"""E13 — floor safety: proving floor-token mutual exclusion, and the
explicit-engine speedup over a dict-BFS baseline.

The paper's verification claim ("users can ... verify different kinds
of conditions") is made concrete three ways:

* **Proof, not luck** — for all four FCM modes the floor-control
  channel's mutual exclusion comes back ``PROVED`` from the inductive
  engine (an invariant/state-equation certificate), not merely
  unviolated within some exploration budget;
* **Proof survives dynamics** — the same safety holds on the *live*
  implementation: every mode runs a scripted session through a
  mid-session partition-and-heal with runtime monitors attached, and
  no invariant violation is recorded;
* **The hot path got faster** — the compiled explorer behind
  :meth:`repro.check.ExplicitEngine.explore` must explore a ≥50k-state
  net at ≥ 3x the states/sec of :func:`dict_bfs_graph`, a breadth-first
  search over ``Marking`` dicts kept here as the baseline (it is what
  ``reachability_graph`` ran before it became a view of the compiled
  explorer), with the perf grid persisted through the sweep engine
  like any other BENCH document; a companion table times the canonical
  :class:`~repro.petri.analysis.MarkingCodec` keys against the old
  sort-on-every-call ``Marking.frozen()`` interning.
"""

from __future__ import annotations

import time
from collections import deque

from repro.api import Scenario, Session, at
from repro.check import (
    ExplicitEngine,
    InductiveEngine,
    Verdict,
    floor_model,
    product_cycles,
)
from repro.core.modes import FCMMode
from repro.experiments import (
    Axis,
    Cell,
    SweepSpec,
    load_document,
    register_runner,
    run_sweep,
    runner_names,
    write_json,
)
from repro.petri.analysis import MarkingCodec, ReachabilityGraph, reachability_graph
from repro.petri.net import PetriNet

#: The exploration workload: 4**8 = 65536 states, measured at a 50k cap.
CYCLES, LENGTH, STATE_BUDGET = 8, 4, 50_000

#: The partition window of the live-monitor scenario (cf. E12).
CUT_AT, HEAL_AT, DURATION = 8.0, 14.0, 26.0
STUDENTS = 4

#: Acceptance bar: compiled explorer states/sec over the dict BFS.
SPEEDUP_BAR = 3.0


def dict_bfs_graph(net: PetriNet, max_nodes: int) -> ReachabilityGraph:
    """Breadth-first search over ``Marking`` dicts: every enabledness
    test, firing and interning key goes through the net's dict API."""
    graph = ReachabilityGraph()
    codec = MarkingCodec(net)
    start = net.marking()
    index_of = {codec.key(start): 0}
    graph.nodes.append(start)
    queue = deque([0])
    while queue:
        current_index = queue.popleft()
        current = graph.nodes[current_index]
        for transition in net.enabled_transitions(current):
            successor = net.successor_marking(current, transition)
            key = codec.key(successor)
            if key in index_of:
                target = index_of[key]
            else:
                if len(graph.nodes) >= max_nodes:
                    graph.complete = False
                    continue
                target = len(graph.nodes)
                index_of[key] = target
                graph.nodes.append(successor)
                queue.append(target)
            graph.edges.append((current_index, transition, target))
    return graph


def run_engine_cell(cell: Cell) -> dict[str, float]:
    """Time one engine over the product-cycles net.

    ``engine`` picks the path: ``dict_bfs`` (the baseline above) or
    ``explicit`` (the compiled explorer).  Both explore the same net
    to the same state cap, so states/sec is an apples-to-apples
    comparison.
    """
    net = product_cycles(cycles=CYCLES, length=LENGTH)
    start = time.perf_counter()
    if cell.params["engine"] == "dict_bfs":
        states = len(dict_bfs_graph(net, max_nodes=STATE_BUDGET))
    else:
        states = len(ExplicitEngine(net, max_states=STATE_BUDGET).explore())
    seconds = time.perf_counter() - start
    return {
        "states": float(states),
        "seconds": seconds,
        "states_per_sec": states / seconds,
    }


if "e13_engine" not in runner_names():
    register_runner("e13_engine", run_engine_cell)

#: The persisted perf grid: one cell per engine.
E13_ENGINE_SPEC = SweepSpec(
    name="e13_engine",
    axes=(Axis("engine", ("dict_bfs", "explicit")),),
    runner="e13_engine",
    root_seed=13,
)


def test_e13_mutex_proved_inductively_for_all_modes(table):
    rows = []
    for mode in FCMMode:
        model = floor_model(mode, members=STUDENTS)
        report = InductiveEngine(model.net).check(model.properties)
        verdict = report.verdict_for(model.mutex.name)
        rows.append((mode.value, verdict.verdict.value.upper(), verdict.method))
        assert verdict.verdict is Verdict.PROVED, (
            f"{mode.value}: mutex not proved"
        )
        # The acceptance bar: a *proof*, not budget survival.
        assert verdict.method in ("invariant", "state-equation"), (
            f"{mode.value}: mutex decided by {verdict.method}, "
            f"not an inductive certificate"
        )
        assert report.all_proved, f"{mode.value}: companion properties failed"
    table("E13: floor-token mutual exclusion (net-level proof)",
          ["mode", "verdict", "method"], rows)


def _partition_session(mode: FCMMode, seed: int) -> Session:
    students = [f"student{i}" for i in range(STUDENTS)]
    builder = (
        Session.builder(chair="teacher")
        .seed(seed)
        .link(latency=0.01)
        .checks("single_speaker", "queue_consistent", "holder_is_member")
        .partition_window(CUT_AT, HEAL_AT - CUT_AT)
    )
    builder.participants(*students)
    if mode is FCMMode.EQUAL_CONTROL:
        builder.policy(mode)
    return builder.build()


def test_e13_monitors_stay_clean_under_partition_and_heal(table):
    rows = []
    for mode in FCMMode:
        students = [f"student{i}" for i in range(STUDENTS)]
        with _partition_session(mode, seed=13) as session:
            request_kwargs: dict = {}
            release_kwargs: dict = {}
            if mode is FCMMode.GROUP_DISCUSSION:
                group = session.open_discussion(
                    "student0", invitees=tuple(students[1:])
                )
                session.run_for(0.5)
                request_kwargs = {"mode": mode, "target_group": group}
                release_kwargs = {"group": group}
            elif mode is FCMMode.DIRECT_CONTACT:
                request_kwargs = {"mode": mode, "target_member": "teacher"}
            script = Scenario(name=f"e13-{mode.value}")
            for index, member in enumerate(students):
                start = 1.5 + 0.7 * index
                while start < DURATION - 2.0:
                    script.add(
                        at(start, "request_floor", member, **request_kwargs),
                        at(start + 1.5, "release_floor", member,
                           **release_kwargs),
                    )
                    start += 4.0
            # Spot-assert the headline invariant before, during, and
            # after the cut, on top of the event-driven monitor.
            script.add(
                at(CUT_AT - 1.0, "assert_invariant", name="single_speaker"),
                at(CUT_AT + 2.0, "assert_invariant", name="single_speaker"),
                at(HEAL_AT + 2.0, "assert_invariant", name="single_speaker"),
            )
            script.run(session, until=DURATION)
            report = session.report()
            blocked = session.network.stats.blocked
            rows.append(
                (mode.value, session.monitor.checks_run,
                 report.check_violations, blocked)
            )
            assert blocked > 0, f"{mode.value}: the partition never bit"
            assert session.monitor.ok, (
                f"{mode.value}: violations "
                f"{[v.render() for v in session.monitor.violations]}"
            )
            assert report.check_violations == 0
            assert report.checked_invariants == 3
    table("E13: runtime invariants through a partition (t=8..14 of 26 s)",
          ["mode", "checks", "violations", "blocked"], rows)


def test_e13_explicit_engine_speedup(table, tmp_path):
    # Wall-clock ratios on shared CI runners are noisy; one bounded
    # retry keeps the assertion honest without a flaky tier-1 gate
    # (the measured margin is ~4.5-5x against a 3x bar).
    for attempt in (1, 2):
        result = run_sweep(E13_ENGINE_SPEC)
        baseline = result.cell("engine=dict_bfs").metrics
        modern = result.cell("engine=explicit").metrics
        speedup = modern["states_per_sec"] / baseline["states_per_sec"]
        if speedup >= SPEEDUP_BAR:
            break
    path = write_json(result, tmp_path / "BENCH_e13_engine.json")
    document = load_document(path)
    assert [cell["id"] for cell in document["cells"]] == [
        "engine=dict_bfs", "engine=explicit",
    ]
    table(
        "E13: exploration throughput on 4^8-cycle net (50k-state cap)",
        ["engine", "states", "seconds", "states/sec"],
        [
            ("dict_bfs", baseline["states"], baseline["seconds"],
             baseline["states_per_sec"]),
            ("explicit", modern["states"], modern["seconds"],
             modern["states_per_sec"]),
        ],
    )
    assert modern["states"] == baseline["states"] == float(STATE_BUDGET)
    assert speedup >= SPEEDUP_BAR, (
        f"explicit engine only {speedup:.2f}x the dict-BFS baseline "
        f"(needs >= {SPEEDUP_BAR}x)"
    )


def test_e13_codec_keys_beat_frozen_interning(table):
    # Satellite claim: Marking.frozen() re-sorts on every interning;
    # the codec reads fixed place order.  Time both over the same
    # markings, enough repetitions to drown scheduler noise.
    net = product_cycles(cycles=CYCLES, length=LENGTH)
    graph = reachability_graph(net, max_nodes=2_000)
    codec = MarkingCodec(net)
    markings = graph.nodes
    repetitions = 20

    def measure():
        start = time.perf_counter()
        for __ in range(repetitions):
            for marking in markings:
                marking.frozen()
        frozen = time.perf_counter() - start
        start = time.perf_counter()
        for __ in range(repetitions):
            for marking in markings:
                codec.key(marking)
        return frozen, time.perf_counter() - start

    # One bounded retry damps scheduler noise in the tier-1 gate
    # (the measured margin is ~2x).
    for attempt in (1, 2):
        frozen_time, codec_time = measure()
        if codec_time < frozen_time:
            break

    keys_frozen = {marking.frozen() for marking in markings}
    keys_codec = {codec.key(marking) for marking in markings}
    assert len(keys_frozen) == len(keys_codec) == len(markings)
    table(
        "E13: marking interning (2000 markings x 20 reps, 32 places)",
        ["keyer", "seconds", "keys/sec"],
        [
            ("Marking.frozen", frozen_time,
             repetitions * len(markings) / frozen_time),
            ("MarkingCodec.key", codec_time,
             repetitions * len(markings) / codec_time),
        ],
    )
    assert codec_time < frozen_time, (
        f"codec keys ({codec_time:.3f}s) not faster than frozen() "
        f"({frozen_time:.3f}s)"
    )


def test_e13_floor_safety_sweep_persists_verdicts(table, tmp_path):
    from repro.experiments import named_spec

    result = run_sweep(named_spec("floor_safety"))
    path = write_json(result, tmp_path / "BENCH_floor_safety.json")
    document = load_document(path)
    rows = []
    for cell in document["cells"]:
        metrics = cell["metrics"]
        rows.append(
            (cell["id"], metrics["proved"], metrics["proved_inductively"],
             metrics["states_explored"])
        )
        assert metrics["mutex_proved"] == 1.0
        assert metrics["violated"] == 0.0
        assert metrics["unknown"] == 0.0
    table("E13: floor_safety sweep (verdict census per cell)",
          ["cell", "proved", "inductive", "states"], rows)
