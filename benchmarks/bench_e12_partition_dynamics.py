"""E12 — network dynamics: the four floor modes under a mid-session
partition-and-heal (:mod:`repro.net.dynamics`).

The paper's synchrony argument assumes bounded delay on a campus LAN;
E12 violates it outright: every student is cut off from the server for
a window in the middle of the session, then the links heal.

Claim shapes:

* during the partition no floor service happens — requests are
  ``blocked`` on the wire, so the arbitration queue sees nothing;
* after the heal, service *resumes* in all four FCM modes without any
  special recovery protocol: the clients' ordinary request/release
  cycles re-drive the arbiter (equal control's stale token holder
  releases again on their next cycle, which un-wedges the queue);
* the blocked-message count is the partition's only footprint — hosts
  never go down, so ``to_down_host`` stays untouched.

Like E3/E8, the grid runs through the :mod:`repro.experiments` sweep
engine via a registered custom cell runner, one cell per FCM mode.
"""

from __future__ import annotations

from repro.api import Scenario, Session, at
from repro.core.modes import FCMMode
from repro.events import EventKind
from repro.experiments import (
    Axis,
    Cell,
    SweepSpec,
    register_runner,
    run_sweep,
    runner_names,
)

#: The partition window every E12 cell applies.
CUT_AT, HEAL_AT, DURATION = 8.0, 14.0, 26.0
STUDENTS = 4


def _service_times(log) -> list[float]:
    """Times at which the floor was served to someone: direct grants
    plus token passes to a queued successor."""
    times = []
    for event in log:
        if event.kind is EventKind.GRANT:
            times.append(event.time)
        elif event.kind is EventKind.TOKEN_PASS and event.detail:
            times.append(event.time)
    return times


def run_partition_cell(cell: Cell) -> dict[str, float]:
    """One FCM mode through a scripted partition-and-heal session."""
    mode = FCMMode(cell.params["mode"])
    students = [f"student{i}" for i in range(STUDENTS)]
    builder = (
        Session.builder(chair="teacher")
        .seed(cell.seed)
        .link(latency=0.01)
        .partition_window(CUT_AT, HEAL_AT - CUT_AT)
    )
    builder.participants(*students)
    if mode is FCMMode.EQUAL_CONTROL:
        builder.policy(mode)
    with builder.build() as session:
        request_kwargs: dict = {}
        release_kwargs: dict = {}
        if mode is FCMMode.GROUP_DISCUSSION:
            group = session.open_discussion("student0", invitees=tuple(students[1:]))
            session.run_for(0.5)  # invitation round trips (auto-accepted)
            request_kwargs = {"mode": mode, "target_group": group}
            release_kwargs = {"group": group}
        elif mode is FCMMode.DIRECT_CONTACT:
            request_kwargs = {"mode": mode, "target_member": "teacher"}
        script = Scenario(name=f"e12-{mode.value}")
        for index, member in enumerate(students):
            start = 1.5 + 0.7 * index
            while start < DURATION - 2.0:
                script.add(
                    at(start, "request_floor", member, **request_kwargs),
                    at(start + 1.5, "release_floor", member, **release_kwargs),
                )
                start += 4.0
        script.run(session, until=DURATION)
        served = _service_times(session.log)
        stats = session.network.stats
        return {
            "served_pre": float(sum(t < CUT_AT for t in served)),
            "served_during": float(
                sum(CUT_AT <= t < HEAL_AT for t in served)
            ),
            "served_post": float(sum(t >= HEAL_AT for t in served)),
            "blocked": float(stats.blocked),
            "to_down_host": float(stats.to_down_host),
        }


if "e12_partition" not in runner_names():
    register_runner("e12_partition", run_partition_cell)

#: One cell per FCM mode — the E12 headline grid.
E12_SPEC = SweepSpec(
    name="e12_partition",
    axes=(Axis("mode", tuple(mode.value for mode in FCMMode)),),
    runner="e12_partition",
    root_seed=12,
)


def _by_mode(result):
    return {
        cell.cell.params["mode"]: cell.metrics for cell in result.results
    }


def test_e12_all_modes_recover_after_heal(benchmark, table):
    results = _by_mode(benchmark(run_sweep, E12_SPEC))
    table(
        "E12: floor service around a partition (t=8..14 of 26 s)",
        ["mode", "pre", "during", "post", "blocked"],
        [
            (
                mode,
                metrics["served_pre"],
                metrics["served_during"],
                metrics["served_post"],
                metrics["blocked"],
            )
            for mode, metrics in results.items()
        ],
    )
    for mode, metrics in results.items():
        assert metrics["served_pre"] > 0, f"{mode}: no service before the cut"
        assert metrics["served_post"] > 0, (
            f"{mode}: service never resumed after the heal"
        )
        assert metrics["blocked"] > 0, f"{mode}: the partition never bit"


def test_e12_partition_starves_service_while_cut(table):
    results = _by_mode(run_sweep(E12_SPEC))
    rows = []
    for mode, metrics in results.items():
        rows.append((mode, metrics["served_during"], metrics["served_pre"]))
        # The wire is cut for every student, so at most a leftover
        # in-flight message can be served during the window.
        assert metrics["served_during"] <= 1
        assert metrics["served_during"] < metrics["served_pre"]
    table("E12: service starvation during the cut", ["mode", "during", "pre"], rows)


def test_e12_partition_blocks_wire_not_hosts(table):
    results = _by_mode(run_sweep(E12_SPEC))
    for metrics in results.values():
        assert metrics["to_down_host"] == 0  # hosts stay up; wires are cut
    table(
        "E12: loss anatomy (all blocked, none to downed hosts)",
        ["mode", "blocked", "to_down_host"],
        [
            (mode, metrics["blocked"], metrics["to_down_host"])
            for mode, metrics in results.items()
        ],
    )


def test_e12_workers_agree_with_serial():
    serial = run_sweep(E12_SPEC, workers=1)
    parallel = run_sweep(E12_SPEC, workers=2)
    assert [dict(r.metrics) for r in serial.results] == [
        dict(r.metrics) for r in parallel.results
    ]
