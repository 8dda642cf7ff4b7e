"""SessionServer behaviour: live dispatch, lockstep determinism, hooks."""

import asyncio
import math

import pytest

from repro.errors import ServeError
from repro.events import EventKind
from repro.serve import (
    ServeClient,
    ServeConfig,
    SessionServer,
    SoakSpec,
    run_soak,
    run_soak_sync,
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 30.0))


class TestConfig:
    def test_validates_mode(self):
        with pytest.raises(ServeError, match="unknown serve mode"):
            ServeConfig(mode="turbo").validate()

    def test_rejects_baseline_policies(self):
        # Serving requires the FCM membership/hand-off semantics.
        with pytest.raises(ServeError, match="FCM mode"):
            ServeConfig(policy="fifo").validate()

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ServeError, match="watermarks"):
            ServeConfig(queue_high=4, queue_low=9).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "speed", "tick", "handshake_timeout", "close_grace",
        "idle_timeout", "round_timeout",
    ])
    def test_rejects_non_finite_numbers(self, field, value):
        with pytest.raises(ServeError, match=f"{field} must be finite"):
            ServeConfig(**{field: value}).validate()


class TestLive:
    def test_request_release_round_trip(self):
        async def scenario():
            server = SessionServer(ServeConfig(mode="live", speed=100.0))
            await server.start()
            try:
                alice = await ServeClient.connect(
                    "127.0.0.1", server.port, "alice"
                )
                assert alice.welcome["policy"] == "equal_control"
                assert alice.welcome["resumed"] is False
                await alice.request()
                granted = await alice.wait_granted(timeout=10.0)
                assert granted.member == "alice"
                await alice.release()
                await alice.leave()
                await alice.close()
            finally:
                await server.stop()
            result = server.result()
            kinds = [event.kind for event in result.events]
            assert EventKind.GRANT in kinds
            assert EventKind.LEAVE in kinds
            assert result.stats_deterministic["leaves"] == 1.0
            assert result.stats_deterministic["evicted_disconnect"] == 0.0

        run(scenario())

    def test_two_members_queue_and_hand_off(self):
        async def scenario():
            server = SessionServer(ServeConfig(mode="live", speed=100.0))
            await server.start()
            try:
                alice = await ServeClient.connect(
                    "127.0.0.1", server.port, "alice"
                )
                bob = await ServeClient.connect(
                    "127.0.0.1", server.port, "bob"
                )
                await alice.request()
                await alice.wait_granted(timeout=10.0)
                await bob.request()
                await bob.wait_for_kind(EventKind.QUEUE, timeout=10.0)
                await alice.release()
                # The release routes the TOKEN_PASS to bob directly.
                granted = await bob.wait_granted(timeout=10.0)
                assert granted.kind is EventKind.TOKEN_PASS
                await alice.close()
                await bob.close()
            finally:
                await server.stop()

        run(scenario())

    def test_duplicate_member_rejected(self):
        async def scenario():
            server = SessionServer(ServeConfig(mode="live"))
            await server.start()
            try:
                alice = await ServeClient.connect(
                    "127.0.0.1", server.port, "alice"
                )
                with pytest.raises(ServeError, match="already connected"):
                    await ServeClient.connect(
                        "127.0.0.1", server.port, "alice"
                    )
                await alice.close()
            finally:
                await server.stop()

        run(scenario())

    def test_chair_name_reserved(self):
        async def scenario():
            server = SessionServer(ServeConfig(mode="live", chair="teacher"))
            await server.start()
            try:
                with pytest.raises(ServeError, match="reserved"):
                    await ServeClient.connect(
                        "127.0.0.1", server.port, "teacher"
                    )
            finally:
                await server.stop()

        run(scenario())

    def test_bad_handshake_gets_error_frame(self):
        async def scenario():
            server = SessionServer(ServeConfig(mode="live"))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b'{"type":"request"}\n')
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), 5.0)
                assert b'"error"' in line and b"hello" in line
                assert await reader.read() == b""  # server closed
                writer.close()
            finally:
                await server.stop()

        run(scenario())

    def test_unknown_verb_gets_error_frame(self):
        async def scenario():
            server = SessionServer(ServeConfig(mode="live"))
            await server.start()
            try:
                alice = await ServeClient.connect(
                    "127.0.0.1", server.port, "alice"
                )
                await alice._send({"type": "dance"})
                frame = await alice.recv(timeout=5.0)
                while frame["type"] == "event":
                    frame = await alice.recv(timeout=5.0)
                assert frame["type"] == "error"
                assert frame["code"] == "unknown_verb"
                await alice.close()
            finally:
                await server.stop()

        run(scenario())

    def test_idle_timeout_evicts(self):
        async def scenario():
            server = SessionServer(
                ServeConfig(mode="live", idle_timeout=0.2)
            )
            await server.start()
            try:
                alice = await ServeClient.connect(
                    "127.0.0.1", server.port, "alice"
                )
                await asyncio.sleep(0.6)
                assert server.members() == []
                await alice.close()
            finally:
                await server.stop()
            assert server.stats.evicted_timeout == 1

        run(scenario())


class TestLockstepDeterminism:
    def test_identical_seeds_identical_metrics_and_transcripts(self):
        spec = SoakSpec(clients=24, rounds=10, disconnects=3, seed=11)
        one = run_soak_sync(spec)
        two = run_soak_sync(spec)
        assert one.to_metrics() == two.to_metrics()
        assert [e.to_dict() for e in one.serve.events] == [
            e.to_dict() for e in two.serve.events
        ]

    def test_different_seeds_differ(self):
        base = SoakSpec(clients=24, rounds=10, disconnects=0, seed=1)
        other = SoakSpec(clients=24, rounds=10, disconnects=0, seed=2)
        assert (
            run_soak_sync(base).to_metrics()
            != run_soak_sync(other).to_metrics()
        )

    def test_soak_counters_add_up(self):
        spec = SoakSpec(clients=16, rounds=8, disconnects=2, seed=5)
        result = run_soak_sync(spec)
        metrics = result.to_metrics()
        assert metrics["connections"] == 16.0
        assert metrics["evicted_disconnect"] == 2.0
        assert metrics["evicted_timeout"] == 0.0
        assert metrics["leaves"] == 14.0
        assert metrics["rounds"] == spec.rounds
        # Grant latency and fairness made it through the fold.
        assert metrics["grant_p95"] >= metrics["grant_p50"] > 0.0
        assert 0.0 < metrics["fairness"] <= 1.0

    def test_ring_bounds_transcript(self):
        spec = SoakSpec(
            clients=16, rounds=12, disconnects=0, seed=3, ring_capacity=64
        )
        result = run_soak_sync(spec)
        assert len(result.serve.events) <= 64
        assert result.serve.evicted_events > 0
        # Eviction drops transcript history, never metrics.
        assert result.to_metrics()["requests"] > 0.0

    def test_wait_for_members_gate(self):
        from repro.serve import decode_frame, encode_frame, hello_frame

        async def scenario():
            config = ServeConfig(mode="lockstep", await_members=2)
            server = SessionServer(config)
            await server.start()
            try:
                # The first member's welcome is withheld until the
                # gate fills, so speak raw wire for it.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame(hello_frame("alice")))
                await writer.drain()
                await asyncio.sleep(0.05)
                assert server.round_index == 0  # gate holds at 1 member
                bob = await ServeClient.connect(
                    "127.0.0.1", server.port, "bob"
                )
                frame = decode_frame(await reader.readline())
                assert frame["type"] == "welcome"
                while frame["type"] != "tick":
                    frame = decode_frame(await reader.readline())
                assert frame["round"] == 2
                writer.close()
                await bob.close()
            finally:
                await server.stop()

        run(scenario())


class TestTraceHooks:
    def test_soak_profile_covers_the_hot_path(self):
        spec = SoakSpec(clients=8, rounds=6, disconnects=1, seed=4)
        result = run_soak_sync(spec, profile=True)
        assert "serve.dispatch" in result.profile
        assert "serve.flush" in result.profile
        assert "serve.evict" in result.profile
        dispatch = result.profile["serve.dispatch"]
        assert dispatch["calls"] > 0
        assert dispatch["self"] >= 0.0

    def test_profile_off_by_default(self):
        spec = SoakSpec(clients=4, rounds=4, disconnects=0, seed=4)
        assert run_soak_sync(spec).profile == {}


class TestAsyncEntry:
    def test_run_soak_reentrant_in_running_loop(self):
        async def scenario():
            spec = SoakSpec(clients=4, rounds=4, disconnects=0, seed=9)
            result = await run_soak(spec)
            assert result.to_metrics()["connections"] == 4.0

        run(scenario())
