"""Tests for the floor policy protocol and registry (repro.api.policies)."""

import pytest

from repro.api import (
    ArbitratedPolicy,
    FloorPolicy,
    make_policy,
    policy_names,
    register_policy,
    resolve_mode,
    unregister_policy,
)
from repro.core import FCMMode
from repro.errors import ReproError
from repro.events.replay import transcript_metrics

EXPECTED_NAMES = {
    "free_access",
    "equal_control",
    "group_discussion",
    "direct_contact",
    "fifo",
    "free_for_all",
}


class TestRegistry:
    def test_builtin_names_registered(self):
        assert EXPECTED_NAMES <= set(policy_names())

    def test_name_round_trips(self):
        for name in policy_names():
            assert make_policy(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError):
            make_policy("anarchy")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ReproError):
            register_policy("fifo", lambda: None)

    def test_reregistering_same_factory_is_noop(self):
        # Spawn-mode fleet workers re-import policy modules; the
        # module-level registrations must survive a second execution.
        factory = lambda: None  # noqa: E731
        register_policy("reimported", factory)
        try:
            register_policy("reimported", factory)  # same object: fine
            with pytest.raises(ReproError):
                register_policy("reimported", lambda: None)  # conflict
        finally:
            unregister_policy("reimported")

    def test_register_and_unregister_custom_policy(self):
        class Silent:
            """Nobody ever speaks."""

            name = "silence"

            def request(self, member, now=0.0):
                return False

            def release(self, member, now=0.0):
                return None

            def speakers(self):
                return set()

            def waiting(self):
                return []

        register_policy("silence", Silent)
        try:
            policy = make_policy("silence")
            assert isinstance(policy, FloorPolicy)
            assert policy.name == "silence"
        finally:
            unregister_policy("silence")
        assert "silence" not in policy_names()

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_builtins_satisfy_protocol(self, name):
        assert isinstance(make_policy(name), FloorPolicy)


class TestResolveMode:
    def test_mode_passthrough(self):
        assert resolve_mode(FCMMode.EQUAL_CONTROL) is FCMMode.EQUAL_CONTROL

    def test_mode_policy_names_resolve(self):
        for mode in FCMMode:
            assert resolve_mode(mode.value) is mode

    def test_baseline_names_rejected(self):
        with pytest.raises(ReproError):
            resolve_mode("fifo")


class TestEqualControlPolicy:
    def test_token_semantics(self):
        policy = make_policy("equal_control")
        assert policy.request("alice")
        assert not policy.request("bob")
        assert policy.speakers() == {"alice"}
        assert policy.waiting() == ["bob"]
        assert policy.release("alice") == "bob"
        assert policy.speakers() == {"bob"}

    def test_stale_release_is_ignored(self):
        policy = make_policy("equal_control")
        policy.request("alice")
        assert policy.release("bob") is None
        assert policy.speakers() == {"alice"}


class TestFreeAccessPolicy:
    def test_everyone_granted(self):
        policy = make_policy("free_access")
        assert policy.request("alice")
        assert policy.request("bob")
        assert {"alice", "bob"} <= policy.speakers()
        assert policy.waiting() == []


class TestGroupDiscussionPolicy:
    def test_requesters_auto_admitted_to_shared_subgroup(self):
        policy = make_policy("group_discussion")
        assert policy.request("alice")
        assert policy.request("bob")
        assert {"alice", "bob"} <= policy.speakers()


class TestDirectContactPolicy:
    def test_peer_defaults_to_chair(self):
        policy = make_policy("direct_contact")
        assert policy.request("alice")
        assert policy.speakers() == {"alice", "teacher"}
        policy.release("alice")
        assert policy.speakers() == set()

    def test_chair_needs_explicit_peer(self):
        policy = make_policy("direct_contact")
        assert not policy.request("teacher")

    def test_explicit_peer(self):
        policy = make_policy("direct_contact")
        policy.request("bob")  # registers bob as a member first
        policy.release("bob")
        assert policy.request("alice", target_member="bob")
        assert policy.speakers() == {"alice", "bob"}


class TestBaselineAdapters:
    def test_fifo_matches_baseline_semantics(self):
        policy = make_policy("fifo")
        assert policy.request("alice", now=0.0)
        assert not policy.request("bob", now=0.5)
        assert policy.waiting() == ["bob"]
        assert policy.release("alice", now=1.0) == "bob"
        # Stale release does not raise through the protocol.
        assert policy.release("alice", now=1.5) is None
        assert transcript_metrics(policy.events())["grant_mean"] == pytest.approx(0.25)

    def test_free_for_all_counts_collisions(self):
        policy = make_policy("free_for_all")
        assert policy.request("alice", now=0.0)
        assert policy.request("bob", now=0.1)  # within the window
        assert policy.speakers() == {"alice", "bob"}
        assert policy.collisions == 1
        assert policy.waiting() == []


class TestArbitratedPolicyIsRealArbitration:
    def test_chair_priority_visible_through_policy(self):
        policy = ArbitratedPolicy(FCMMode.EQUAL_CONTROL)
        policy.request("student0")
        policy.request("teacher")
        arbitrator = policy.server.arbitrator
        chair = arbitrator.effective_priority("teacher", "session")
        student = arbitrator.effective_priority("student0", "session")
        # student0 holds the token (elevated); the chair outranks the base.
        assert chair >= 3
        assert student >= 2  # token holder elevation
        assert arbitrator.stats.queued == 1
