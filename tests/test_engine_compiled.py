"""Tests for repro.engine: compiled policies match the reference byte-for-byte.

Workloads are generated: any of the four scenarios, 1–12 members,
varied durations, holds and request rates, and a transcript ring
smaller than the event stream.  Hypothesis runs derandomized, and the
fixed-seed workloads this suite always pinned ride along as explicit
examples, so tier-1 runs are deterministic.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.modes import FCMMode
from repro.api.policies import ArbitratedPolicy, PolicyDriver, make_policy
from repro.engine import (
    CompiledEngine,
    CompiledFIFO,
    CompiledFreeForAll,
    compile_policy,
    compiled_policy_names,
    make_engine_policy,
)
from repro.errors import FloorControlError, ReproError
from repro.events.replay import build_meta
from repro.events.transcript import dumps_transcript
from repro.metrics import MetricsFold
from repro.workload.generator import WorkloadConfig, generate, member_names

MODES = tuple(mode.value for mode in FCMMode)
ALL_POLICIES = MODES + ("fifo", "free_for_all")
ENGINES = ("reference", "compiled")
SCENARIOS = ("lecture", "seminar", "panel", "storm")

#: Generated cases per test; each runs in a few milliseconds.
EXAMPLES = 8


@st.composite
def workloads(draw):
    """``(events, ring capacity)``: a generated workload and a ring
    bound no larger than its event stream."""
    config = WorkloadConfig(
        members=draw(st.integers(1, 12)),
        duration=draw(st.sampled_from((10.0, 30.0, 60.0))),
        seed=draw(st.integers(0, 10_000)),
        mean_hold=draw(st.sampled_from((0.5, 2.0, 4.0))),
        request_rate=draw(st.sampled_from((1.0, 4.0, 12.0))),
    )
    events = generate(draw(st.sampled_from(SCENARIOS)), config)
    return events, draw(st.integers(1, max(1, len(events))))


def seeded(scenario, capacity=None, **config):
    """One fixed-seed corpus workload, as a hypothesis example."""
    return example(workload=(generate(scenario, WorkloadConfig(**config)), capacity))


def generated(test):
    """Run ``test(..., workload)`` on the derandomized generated cases."""
    return settings(max_examples=EXAMPLES, deadline=None, derandomize=True)(
        given(workload=workloads())(test)
    )


def floor_steps(events):
    return [event for event in events if event.action in ("request", "release")]


def rows(events):
    """Events as the ``(time, member, action)`` rows the driver reads."""
    return [(event.time, event.member, event.action) for event in events]


def transcript(events):
    return dumps_transcript(events, meta=build_meta(events))


def stats_tuple(policy):
    stats = policy.stats
    return (stats.granted, stats.queued, stats.denied, stats.aborted)


def drive_per_call(policy, events):
    """The per-call oracle: one ``request``/``release`` per event."""
    for event in floor_steps(events):
        if event.action == "request":
            policy.request(event.member, event.time)
        else:
            policy.release(event.member, event.time)


class Recording:
    """Records every decision the shared driver asks a policy for."""

    def __init__(self, policy):
        self.policy = policy
        self.outcomes = []

    def request_batch(self, submissions):
        outcomes = self.policy.request_batch(submissions)
        self.outcomes.extend(outcomes)
        return outcomes

    def release(self, member, now):
        successor = self.policy.release(member, now)
        self.outcomes.append(successor)
        return successor


def oracle(policy, events, members):
    """The request/release/post → fold loop, written out per call."""
    fold = MetricsFold(mode="exact", members=members)
    outcomes = []
    requests = posts = 0
    for event in events:
        if event.action == "request":
            requests += 1
            fold.requested(event.member, event.time)
            granted = policy.request(event.member, event.time)
            outcomes.append(granted)
            if granted:
                fold.serve(event.member, event.time)
        elif event.action == "release":
            successor = policy.release(event.member, event.time)
            outcomes.append(successor)
            if successor is not None:
                fold.serve(successor, event.time)
        else:
            posts += 1
    return outcomes, fold, requests, posts


def fold_state(fold):
    return fold.served, fold.latencies, dict(fold.counts), fold.fairness()


# ----------------------------------------------------------------------
# The shared driver against a per-call oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", ALL_POLICIES)
@seeded("seminar", members=10, duration=120.0, seed=3, request_rate=3.0)
@seeded("lecture", capacity=16, members=12, duration=60.0, seed=7, request_rate=12.0)
@generated
def test_driver_matches_per_call_oracle(name, engine, workload):
    events, capacity = workload
    members = member_names(12)
    driven = make_engine_policy(name, engine=engine, log_capacity=capacity)
    recording = Recording(driven)
    driver = PolicyDriver(
        recording, MetricsFold(mode="exact", members=members), rows(events)
    )
    assert driver.advance(math.inf) == len(events)

    per_call = make_engine_policy(name, engine=engine, log_capacity=capacity)
    outcomes, fold, requests, posts = oracle(per_call, events, members)

    assert recording.outcomes == outcomes
    assert (driver.requests, driver.posts, driver.events) == (
        requests, posts, len(events)
    )
    assert fold_state(driver.fold) == fold_state(fold)
    assert stats_tuple(driven) == stats_tuple(per_call)
    grants = [outcome for outcome in outcomes if isinstance(outcome, bool)]
    assert (driven.stats.granted, driven.stats.queued) == (
        grants.count(True), grants.count(False)
    )
    assert driven.evicted == per_call.evicted


# ----------------------------------------------------------------------
# Byte identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_POLICIES)
@seeded("seminar", members=10, duration=120.0, seed=3, request_rate=3.0)
@generated
def test_per_call_transcripts_byte_identical(name, workload):
    events, capacity = workload
    reference = make_policy(name, log_capacity=capacity)
    compiled = compile_policy(name, log_capacity=capacity)
    drive_per_call(reference, events)
    drive_per_call(compiled, events)
    assert transcript(reference.events()) == transcript(compiled.events())
    assert reference.evicted == compiled.evicted


@pytest.mark.parametrize("name", ALL_POLICIES)
@seeded("seminar", members=10, duration=120.0, seed=9, request_rate=3.0)
@generated
def test_batched_transcripts_byte_identical(name, workload):
    events, capacity = workload
    transcripts = []
    for engine in ENGINES:
        policy = make_engine_policy(name, engine=engine, log_capacity=capacity)
        PolicyDriver(policy, MetricsFold(mode="fold"), rows(events)).advance(math.inf)
        transcripts.append((transcript(policy.events()), policy.evicted))
    assert transcripts[0] == transcripts[1]


@pytest.mark.parametrize("name", ALL_POLICIES)
@seeded("seminar", members=10, duration=120.0, seed=11, request_rate=3.0)
@generated
def test_decisions_and_views_match_step_by_step(name, workload):
    events, _ = workload
    reference = make_policy(name)
    compiled = compile_policy(name)
    for event in floor_steps(events):
        member, when = event.member, event.time
        if event.action == "request":
            assert reference.request(member, when) == compiled.request(
                member, when
            ), f"{name}: request({member!r}) diverged"
        else:
            assert reference.release(member, when) == compiled.release(
                member, when
            ), f"{name}: release({member!r}) diverged"
        assert reference.speakers() == compiled.speakers()
        assert list(reference.waiting()) == list(compiled.waiting())


@pytest.mark.parametrize("name", ALL_POLICIES)
@seeded("seminar", members=10, duration=120.0, seed=5, request_rate=3.0)
@generated
def test_arbitration_stats_match(name, workload):
    events, _ = workload
    reference = make_policy(name)
    compiled = compile_policy(name)
    drive_per_call(reference, events)
    drive_per_call(compiled, events)
    assert stats_tuple(compiled) == stats_tuple(reference)


def test_ring_eviction_parity():
    """With a tight ring both engines keep the same tail and count."""
    events = generate(
        "seminar",
        WorkloadConfig(members=12, duration=240.0, seed=7, request_rate=5.0),
    )
    reference = make_policy("equal_control", log_capacity=32)
    compiled = compile_policy("equal_control", log_capacity=32)
    drive_per_call(reference, events)
    drive_per_call(compiled, events)
    assert compiled.evicted == reference.evicted
    assert compiled.evicted > 0
    assert transcript(reference.events()) == transcript(compiled.events())


@seeded("seminar", members=10, duration=120.0, seed=13, request_rate=3.0)
@generated
def test_fifo_counters_match_reference(workload):
    events, _ = workload
    reference = make_policy("fifo")
    compiled = compile_policy("fifo")
    drive_per_call(reference, events)
    drive_per_call(compiled, events)
    assert compiled.grants == reference.grants
    assert compiled.waits == reference.waits


@seeded("seminar", members=10, duration=120.0, seed=17, request_rate=8.0)
@generated
def test_free_for_all_collisions_match_reference(workload):
    events, _ = workload
    reference = make_policy("free_for_all")
    compiled = compile_policy("free_for_all")
    drive_per_call(reference, events)
    drive_per_call(compiled, events)
    assert compiled.posts() == reference.posts()
    assert compiled.collision_rate() == reference.collision_rate()


BASELINE_CALLS = {
    "request": lambda policy, now: policy.request("carol", now),
    "request_batch": lambda policy, now: policy.request_batch([("carol", now)]),
    "release": lambda policy, now: policy.release("alice", now),
}


@pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(BASELINE_CALLS))
@pytest.mark.parametrize("name", ["fifo", "free_for_all"])
@pytest.mark.parametrize("engine", ENGINES)
def test_baselines_refuse_non_finite_times(engine, name, call, now):
    policy = make_engine_policy(name, engine=engine)
    policy.request("alice", 1.0)
    policy.request("bob", 2.0)

    def state():
        return (policy.events(), policy.speakers(), policy.waiting(),
                stats_tuple(policy))

    before = state()
    with pytest.raises(FloorControlError, match="floor time must be finite"):
        BASELINE_CALLS[call](policy, now)
    assert state() == before


# ----------------------------------------------------------------------
# Factory surface
# ----------------------------------------------------------------------
def test_compiled_policy_names_cover_modes_and_baselines():
    assert set(compiled_policy_names()) == set(ALL_POLICIES)


def test_compile_policy_rejects_unknown_name():
    with pytest.raises(ReproError, match="free_for_all"):
        compile_policy("nope")


def test_make_engine_policy_dispatches():
    assert isinstance(make_engine_policy("fifo", engine="compiled"), CompiledFIFO)
    assert isinstance(
        make_engine_policy("free_for_all", engine="compiled"), CompiledFreeForAll
    )
    assert isinstance(
        make_engine_policy("equal_control", engine="compiled"), CompiledEngine
    )
    reference = make_engine_policy("equal_control", engine="reference")
    assert isinstance(reference, ArbitratedPolicy)
    with pytest.raises(ReproError, match="engine"):
        make_engine_policy("fifo", engine="turbo")


def test_make_engine_policy_runs_only_the_built_ins():
    from repro.api.policies import register_policy, unregister_policy

    register_policy("custom_engine", lambda **kwargs: None)
    try:
        for engine in ENGINES:
            with pytest.raises(ReproError, match="built-in policies"):
                make_engine_policy("custom_engine", engine=engine)
    finally:
        unregister_policy("custom_engine")


def test_direct_contact_chair_request_matches_reference():
    reference = make_policy("direct_contact")
    compiled = compile_policy("direct_contact")
    assert reference.request("teacher") == compiled.request("teacher") is False
    assert transcript(reference.events()) == transcript(compiled.events())
