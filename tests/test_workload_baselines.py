"""Tests for workload generators and the baseline policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import make_policy
from repro.errors import ReproError
from repro.events.replay import transcript_metrics
from repro.temporal.compiler import compile_spec
from repro.temporal.schedule import compute_schedule
from repro.workload.generator import WorkloadConfig, generate, member_names
from repro.workload.presentations import (
    figure1_presentation,
    lecture_ocpn,
    random_presentation,
)


class TestGenerator:
    @pytest.mark.parametrize("scenario", ["lecture", "seminar", "panel", "storm"])
    def test_scenarios_produce_sorted_events(self, scenario):
        events = generate(scenario, WorkloadConfig(members=6, duration=30.0, seed=1))
        assert events, f"scenario {scenario} produced no events"
        times = [event.time for event in events]
        assert times == sorted(times)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError):
            generate("rave", WorkloadConfig())

    @pytest.mark.parametrize("field, value, message", [
        ("mean_hold", 0.0, "mean_hold must be positive, got 0.0"),
        ("mean_hold", -2.0, "mean_hold must be positive, got -2.0"),
        ("request_rate", -1.0, "request_rate must be >= 0, got -1.0"),
        ("mean_hold", float("nan"), "mean_hold must be finite, got nan"),
        ("request_rate", float("inf"), "request_rate must be finite, got inf"),
        ("duration", float("-inf"), "duration must be finite, got -inf"),
        ("duration", float("nan"), "duration must be finite, got nan"),
    ])
    def test_config_refuses_rates_no_workload_can_run(self, field, value, message):
        # Only constructed, never generated: a negative seminar hold
        # never ends, and a zero lecture hold divides by zero.
        with pytest.raises(ReproError) as raised:
            WorkloadConfig(**{field: value})
        assert str(raised.value) == message

    def test_config_accepts_a_zero_request_rate(self):
        assert WorkloadConfig(request_rate=0.0).request_rate == 0.0

    def test_seed_determinism(self):
        config = WorkloadConfig(members=5, duration=40.0, seed=7)
        assert generate("lecture", config) == generate("lecture", config)

    def test_different_seeds_differ(self):
        a = generate("lecture", WorkloadConfig(seed=1))
        b = generate("lecture", WorkloadConfig(seed=2))
        assert a != b

    def test_storm_requests_all_members(self):
        events = generate("storm", WorkloadConfig(members=12))
        assert {event.member for event in events} == set(member_names(12))
        assert all(event.action == "request" for event in events)

    def test_events_within_duration(self):
        events = generate("seminar", WorkloadConfig(duration=25.0, seed=3))
        assert all(event.time <= 25.0 for event in events)


class TestPresentationBuilders:
    def test_figure1_schedules(self):
        schedule = compute_schedule(figure1_presentation())
        assert schedule.start_of("slides1") == schedule.start_of("narration1")
        assert schedule.start_of("demo_video") == pytest.approx(23.0)
        assert schedule.makespan() == pytest.approx(3 + 20 + 15 + 25 + 5)

    def test_lecture_ocpn_scales_with_segments(self):
        short = compute_schedule(lecture_ocpn(segments=1))
        long = compute_schedule(lecture_ocpn(segments=4))
        assert long.makespan() > short.makespan()

    @settings(max_examples=15, deadline=None)
    @given(items=st.integers(min_value=1, max_value=12), seed=st.integers(0, 100))
    def test_property_random_presentations_always_compile(self, items, seed):
        spec = random_presentation(items, seed=seed)
        schedule = compute_schedule(compile_spec(spec))
        assert len(schedule.media_names()) == items


class TestFIFOBaseline:
    def test_first_request_granted(self):
        fifo = make_policy("fifo")
        assert fifo.request("alice", now=1.0)
        assert fifo.speakers() == {"alice"}

    def test_second_waits_fifo(self):
        fifo = make_policy("fifo")
        fifo.request("alice", now=1.0)
        assert not fifo.request("bob", now=2.0)
        assert not fifo.request("carol", now=3.0)
        assert fifo.release("alice", now=5.0) == "bob"
        assert fifo.release("bob", now=6.0) == "carol"

    def test_stale_release_is_ignored(self):
        fifo = make_policy("fifo")
        assert fifo.release("ghost") is None

    def test_grant_latency_accounting(self):
        fifo = make_policy("fifo")
        fifo.request("alice", now=0.0)
        fifo.request("bob", now=1.0)
        fifo.release("alice", now=5.0)
        # bob waited from t=1 to t=5; alice got it instantly.
        assert transcript_metrics(fifo.events())["grant_mean"] == pytest.approx(2.0)

    def test_teacher_waits_behind_students(self):
        """The pathology the priority-aware arbitrator avoids."""
        fifo = make_policy("fifo")
        fifo.request("student0", now=0.0)
        fifo.request("student1", now=0.1)
        assert not fifo.request("teacher", now=0.2)
        assert fifo.release("student0", now=5.0) == "student1"
        assert fifo.speakers() == {"student1"}

    def test_rerequest_by_holder_is_noop(self):
        fifo = make_policy("fifo")
        fifo.request("a")
        assert fifo.request("a")
        assert fifo.grants == 1


class TestFreeForAllBaseline:
    def test_no_collision_when_spaced_out(self):
        chaos = make_policy("free_for_all", collision_window=0.25)
        chaos.request("a", 0.0)
        chaos.request("b", 1.0)
        assert chaos.collisions == 0

    def test_collision_within_window(self):
        chaos = make_policy("free_for_all", collision_window=0.25)
        chaos.request("a", 0.0)
        chaos.request("b", 0.1)
        assert chaos.collisions == 1
        assert chaos.collision_rate() == pytest.approx(0.5)

    def test_same_author_burst_not_a_collision(self):
        chaos = make_policy("free_for_all", collision_window=0.25)
        chaos.request("a", 0.0)
        chaos.request("a", 0.1)
        assert chaos.collisions == 0

    def test_empty_rates(self):
        chaos = make_policy("free_for_all")
        assert chaos.collision_rate() == 0.0
