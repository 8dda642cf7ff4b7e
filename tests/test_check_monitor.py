"""Tests for live session monitors: facade wiring, event-driven
checking, violation episodes, the scripted assert verb, and report
integration."""

import pytest

from repro.api import Scenario, Session, at
from repro.events import EventKind
from repro.core.modes import FCMMode
from repro.check.monitor import (
    SessionMonitor,
    evaluate_invariant,
    invariant_names,
    register_invariant,
    unregister_invariant,
)
from repro.errors import CheckError, SessionError


def monitored_session(*checks, **kwargs):
    builder = (
        Session.builder(chair="teacher")
        .participants("alice", "bob")
        .policy("equal_control")
        .checks(*(checks or ("single_speaker", "queue_consistent",
                             "holder_is_member")), **kwargs)
    )
    return builder.build()


def corrupt_queue(session):
    token = session.server.control.arbitrator.token(
        session.server.session_group
    )
    token.queue.append(token.holder)


class TestRegistry:
    def test_builtins_registered(self):
        assert {"single_speaker", "queue_consistent", "holder_is_member"} <= set(
            invariant_names()
        )

    def test_register_and_unregister(self):
        register_invariant("always_fine", lambda session: None)
        try:
            assert "always_fine" in invariant_names()
            with pytest.raises(CheckError):
                register_invariant("always_fine", lambda session: None)
        finally:
            unregister_invariant("always_fine")
        assert "always_fine" not in invariant_names()

    def test_reregistering_same_check_is_noop(self):
        # Spawn-mode workers re-run module registrations; only a
        # *different* function under a taken name should raise.
        check = lambda session: None  # noqa: E731
        register_invariant("reimported_check", check)
        try:
            register_invariant("reimported_check", check)
            assert "reimported_check" in invariant_names()
        finally:
            unregister_invariant("reimported_check")

    def test_evaluate_unknown_name_raises(self):
        with monitored_session() as session:
            with pytest.raises(CheckError):
                evaluate_invariant("nonsense", session)


class TestFacadeWiring:
    def test_checks_config_attaches_monitor(self):
        with monitored_session() as session:
            assert session.monitor is not None
            assert session.monitor.names == (
                "single_speaker", "queue_consistent", "holder_is_member"
            )

    def test_no_checks_no_monitor(self):
        with Session.build("alice", chair="teacher") as session:
            assert session.monitor is None

    def test_unknown_check_name_rejected_at_validate(self):
        with pytest.raises(SessionError):
            Session.builder(chair="teacher").participants("a").checks(
                "nonsense"
            ).config()

    def test_bad_sweep_rejected(self):
        with pytest.raises(SessionError):
            Session.builder(chair="teacher").participants("a").checks(
                "single_speaker", sweep=0.0
            ).config()

    def test_close_stops_monitor(self):
        session = monitored_session()
        session.close()
        runs = session.monitor.checks_run
        session.server.control.log.append(
            session.now(), EventKind.GRANT, "alice", "session"
        )
        assert session.monitor.checks_run == runs


class TestMonitoring:
    def test_clean_run_records_nothing(self):
        with monitored_session() as session:
            script = Scenario().add(
                at(1.5, "request_floor", "alice"),
                at(2.5, "release_floor", "alice"),
                at(3.0, "request_floor", "bob"),
                at(4.0, "release_floor", "bob"),
            )
            script.run(session)
            assert session.monitor.ok
            assert session.monitor.checks_run > 0

    def test_events_trigger_checks(self):
        with monitored_session() as session:
            before = session.monitor.checks_run
            session.request_floor("alice")
            session.run_for(0.5)
            assert session.monitor.checks_run > before

    def test_injected_corruption_is_caught(self):
        with monitored_session("queue_consistent") as session:
            session.request_floor("alice")
            session.run_for(0.5)
            corrupt_queue(session)
            session.run_for(1.0)
            assert not session.monitor.ok
            violation = session.monitor.violations[0]
            assert violation.invariant == "queue_consistent"
            assert "also queued" in violation.detail

    def test_episode_recorded_once_until_recovery(self):
        with monitored_session("queue_consistent") as session:
            session.request_floor("alice")
            session.run_for(0.5)
            corrupt_queue(session)
            session.run_for(2.0)  # many sweeps + events while failing
            assert len(session.monitor.violations) == 1
            # recover, then corrupt again: a new episode is recorded
            token = session.server.control.arbitrator.token(
                session.server.session_group
            )
            token.queue.clear()
            session.run_for(1.0)
            corrupt_queue(session)
            session.run_for(1.0)
            assert len(session.monitor.violations) == 2

    def test_refailure_recorded_despite_concurrent_other_episode(self):
        # Regression: with a different failure of the same invariant
        # active in between, a healed-then-identical re-failure used to
        # be dedup'd away (clear only ran when the invariant passed).
        register_invariant("flaky", lambda session: session._flaky_detail)
        try:
            with monitored_session("single_speaker") as session:
                monitor = SessionMonitor(session, ["flaky"])
                session._flaky_detail = "g1 broken"
                monitor.check_now()
                session._flaky_detail = "g2 broken"  # g1 healed, g2 broke
                monitor.check_now()
                session._flaky_detail = "g1 broken"  # g1 broke AGAIN
                monitor.check_now()
                details = [v.detail for v in monitor.violations]
                assert details == ["g1 broken", "g2 broken", "g1 broken"]
                monitor.stop()
        finally:
            unregister_invariant("flaky")

    def test_monitor_requires_known_invariants_and_some(self):
        with Session.build("alice", chair="teacher") as session:
            with pytest.raises(CheckError):
                SessionMonitor(session, [])
            with pytest.raises(CheckError):
                SessionMonitor(session, ["nonsense"])

    def test_monitoring_is_side_effect_free(self):
        # Attaching a monitor must not change server state: the token
        # invariants read via peek_token and never materialize tokens.
        with monitored_session() as session:
            session.run_for(2.0)  # sweeps + events, no floor activity
            assert session.server.control.arbitrator._tokens == {}

    def test_render_mentions_counts(self):
        with monitored_session() as session:
            session.run_for(1.0)
            text = session.monitor.render()
            assert "no violations" in text


class TestAssertVerb:
    def test_assert_invariant_passes_silently(self):
        with monitored_session() as session:
            session.assert_invariant("single_speaker")

    def test_assert_invariant_raises_on_violation(self):
        with monitored_session("queue_consistent") as session:
            session.request_floor("alice")
            session.run_for(0.5)
            corrupt_queue(session)
            with pytest.raises(CheckError):
                session.assert_invariant("queue_consistent")
            # the spot check also lands in the monitored record
            assert not session.monitor.ok

    def test_assert_works_without_monitor(self):
        with Session.build("alice", chair="teacher") as session:
            session.assert_invariant("single_speaker")

    def test_unmonitored_episode_clears_on_passing_assert(self):
        # Regression: episodes recorded for names outside the monitor's
        # set used to stay active forever, dedup-ing real re-failures.
        with monitored_session("single_speaker") as session:
            session.request_floor("alice")
            session.run_for(0.5)
            corrupt_queue(session)
            with pytest.raises(CheckError):
                session.assert_invariant("queue_consistent")
            token = session.server.control.arbitrator.token(
                session.server.session_group
            )
            token.queue.clear()
            session.assert_invariant("queue_consistent")  # passes: episode ends
            corrupt_queue(session)
            with pytest.raises(CheckError):
                session.assert_invariant("queue_consistent")
            assert len(session.monitor.violations) == 2

    def test_duplicate_check_names_kept_once(self):
        # Regression: duplicates used to double-evaluate and overcount
        # checked_invariants in the report.
        session = (
            Session.builder(chair="teacher").participants("alice")
            .checks("single_speaker").checks("single_speaker",
                                             "queue_consistent")
            .build()
        )
        with session:
            assert session.monitor.names == (
                "single_speaker", "queue_consistent"
            )
            assert session.report().checked_invariants == 2

    def test_direct_contact_channel_capped_at_two_members(self):
        # single_speaker covers every mode's channel discipline: a
        # direct-contact subgroup with a third member is a violation.
        with monitored_session("single_speaker") as session:
            control = session.server.control
            group = control.registry.create_subgroup(
                control.session_group, "alice"
            )
            control._mode[group.group_id] = FCMMode.DIRECT_CONTACT
            control.registry.join(group.group_id, "bob")
            detail = evaluate_invariant("single_speaker", session)
            assert detail is None  # two members: fine
            control.registry.join(group.group_id, "teacher")
            detail = evaluate_invariant("single_speaker", session)
            assert detail is not None and "direct-contact" in detail

    def test_assert_records_even_unmonitored_invariants(self):
        # Regression: asserting a name outside the monitor's configured
        # set used to raise without landing in the violation record.
        with monitored_session("single_speaker") as session:
            session.request_floor("alice")
            session.run_for(0.5)
            corrupt_queue(session)
            with pytest.raises(CheckError):
                session.assert_invariant("queue_consistent")
            assert not session.monitor.ok
            assert session.monitor.violations[0].invariant == "queue_consistent"
            assert session.monitor.violations[0].trigger == "assert"
            assert session.report().check_violations == 1

    def test_scriptable_step(self):
        with monitored_session() as session:
            script = Scenario().add(
                at(1.5, "request_floor", "alice"),
                at(2.0, "assert_invariant", name="single_speaker"),
                at(2.5, "release_floor", "alice"),
            )
            script.run(session)
            assert session.monitor.ok


class TestReportIntegration:
    def test_report_counts_monitored_invariants(self):
        with monitored_session() as session:
            session.run_for(1.0)
            report = session.report()
            assert report.checked_invariants == 3
            assert report.check_violations == 0
            assert "checks:" in report.render()

    def test_report_counts_violations(self):
        with monitored_session("queue_consistent") as session:
            session.request_floor("alice")
            session.run_for(0.5)
            corrupt_queue(session)
            session.run_for(1.0)
            report = session.report()
            assert report.check_violations == 1

    def test_unmonitored_report_omits_checks_line(self):
        with Session.build("alice", chair="teacher") as session:
            report = session.report()
            assert report.checked_invariants == 0
            assert "checks:" not in report.render()
