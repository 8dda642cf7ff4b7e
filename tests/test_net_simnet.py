"""Tests for the network simulator, transport, and topology builders."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock.virtual import VirtualClock
from repro.errors import ClockError, NetworkError, UnknownHostError
from repro.net.simnet import Link, Network
from repro.net.topology import build_star
from repro.net.transport import ReliableChannel


def make_pair(clock=None, link=None, seed=0):
    clock = clock if clock is not None else VirtualClock()
    network = Network(clock, rng=random.Random(seed))
    inbox_a, inbox_b = [], []
    network.add_host("a", lambda s, p: inbox_a.append((s, p)))
    network.add_host("b", lambda s, p: inbox_b.append((s, p)))
    network.connect_both("a", "b", link if link is not None else Link(base_latency=0.05))
    return clock, network, inbox_a, inbox_b


class TestConnectBoth:
    def test_copies_every_link_field(self):
        """``connect_both`` must clone the template wholesale: a field
        added to ``Link`` later may never be silently dropped by a
        field-by-field rebuild.  The one exception is transient
        per-direction state (``_busy_until``), which must *reset* — a
        template that already carried traffic may not hand its
        serialization backlog to both new directions."""
        import dataclasses

        network = Network(VirtualClock())
        network.add_host("a", lambda s, p: None)
        network.add_host("b", lambda s, p: None)
        template = Link(
            base_latency=0.5,
            jitter=0.25,
            loss_probability=0.5,
            bandwidth_kbps=123.0,
        )
        template._busy_until = 1.5  # mutable per-link state
        network.connect_both("a", "b", template)
        forward = network._links[("a", "b")]
        backward = network._links[("b", "a")]
        for direction in (forward, backward):
            for field_info in dataclasses.fields(Link):
                if field_info.name == "_busy_until":
                    continue
                assert getattr(direction, field_info.name) == getattr(
                    template, field_info.name
                ), f"connect_both dropped Link.{field_info.name}"
            assert direction._busy_until == 0.0

    def test_clone_resets_serialization_backlog(self):
        """Regression: a used template link used to hand its
        ``_busy_until`` backlog to both directions, delaying the first
        messages of a fresh connection for no physical reason."""
        clock = VirtualClock()
        network = Network(clock, rng=random.Random(0))
        inbox = []
        network.add_host("a", lambda s, p: None)
        network.add_host("b", lambda s, p: inbox.append(p))
        template = Link(base_latency=0.01, bandwidth_kbps=8.0)
        template._busy_until = 1e6  # a heavily backlogged past life
        network.connect_both("a", "b", template)
        network.send("a", "b", "first", size_bytes=100)
        # 100 bytes at 8 kbps = 0.1 s serialization + 0.01 s latency.
        clock.run_until(0.2)
        assert inbox == ["first"]

    def test_directions_are_independent_copies(self):
        """The two directions (and the caller's template) must not
        share mutable serialization state."""
        network = Network(VirtualClock())
        network.add_host("a", lambda s, p: None)
        network.add_host("b", lambda s, p: None)
        template = Link(bandwidth_kbps=64.0)
        network.connect_both("a", "b", template)
        forward = network._links[("a", "b")]
        backward = network._links[("b", "a")]
        assert forward is not backward
        assert forward is not template
        forward._busy_until = 9.0
        assert backward._busy_until == 0.0
        assert template._busy_until == 0.0


class TestLinkValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(NetworkError):
            Link(base_latency=-0.1)

    def test_negative_jitter_rejected(self):
        with pytest.raises(NetworkError):
            Link(jitter=-0.1)

    def test_loss_probability_out_of_range_rejected(self):
        with pytest.raises(NetworkError):
            Link(loss_probability=1.5)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(NetworkError):
            Link(bandwidth_kbps=0.0)


class TestBasicDelivery:
    def test_message_arrives_after_latency(self):
        clock, network, __, inbox_b = make_pair()
        network.send("a", "b", "hello")
        clock.run_until(0.049)
        assert inbox_b == []
        clock.run_until(0.051)
        assert inbox_b == [("a", "hello")]

    def test_duplicate_host_rejected(self):
        clock = VirtualClock()
        network = Network(clock)
        network.add_host("x", lambda s, p: None)
        with pytest.raises(NetworkError):
            network.add_host("x", lambda s, p: None)

    def test_unknown_host_rejected(self):
        clock, network, __, __ = make_pair()
        with pytest.raises(UnknownHostError):
            network.send("a", "ghost", "x")

    def test_no_link_rejected(self):
        clock = VirtualClock()
        network = Network(clock)
        network.add_host("a", lambda s, p: None)
        network.add_host("b", lambda s, p: None)
        with pytest.raises(NetworkError):
            network.send("a", "b", "x")

    def test_default_link_fallback(self):
        clock = VirtualClock()
        network = Network(clock)
        inbox = []
        network.add_host("a", lambda s, p: None)
        network.add_host("b", lambda s, p: inbox.append(p))
        network.set_default_link(Link(base_latency=0.01))
        assert network.send("a", "b", "x")
        clock.run_until(1.0)
        assert inbox == ["x"]

    def test_negative_size_rejected(self):
        clock, network, __, __ = make_pair()
        with pytest.raises(NetworkError):
            network.send("a", "b", "x", size_bytes=-1)

    def test_unknown_source_reported_before_unknown_target(self):
        clock, network, __, __ = make_pair()
        with pytest.raises(UnknownHostError, match="'ghost'"):
            network.send("ghost", "phantom", "x")
        assert network.stats.sent == 0

    def test_non_finite_latency_never_reaches_the_heap(self):
        clock, network, __, inbox_b = make_pair(link=Link(base_latency=float("inf")))
        with pytest.raises(ClockError, match="finite"):
            network.send("a", "b", "x")
        assert clock.pending() == 0
        network.link("a", "b").base_latency = 0.01
        assert network.send("a", "b", "y")
        clock.run_until(1.0)
        assert inbox_b == [("a", "y")]

    def test_fifo_on_single_link_without_jitter(self):
        clock, network, __, inbox_b = make_pair()
        for i in range(10):
            network.send("a", "b", i)
        clock.run_until(1.0)
        assert [p for __, p in inbox_b] == list(range(10))


class TestLossAndDowntime:
    def test_full_loss_drops_everything(self):
        clock, network, __, inbox_b = make_pair(link=Link(loss_probability=1.0))
        assert not network.send("a", "b", "x")
        clock.run_until(1.0)
        assert inbox_b == []
        assert network.stats.dropped == 1

    def test_down_host_counts_separately(self):
        clock, network, __, inbox_b = make_pair()
        network.set_host_up("b", False)
        assert not network.send("a", "b", "x")
        assert network.stats.to_down_host == 1

    def test_host_down_mid_flight_loses_message(self):
        clock, network, __, inbox_b = make_pair()
        network.send("a", "b", "x")
        network.set_host_up("b", False)
        clock.run_until(1.0)
        assert inbox_b == []
        assert network.stats.to_down_host == 1

    def test_host_back_up_receives_again(self):
        clock, network, __, inbox_b = make_pair()
        network.set_host_up("b", False)
        network.send("a", "b", "lost")
        network.set_host_up("b", True)
        network.send("a", "b", "found")
        clock.run_until(1.0)
        assert [p for __, p in inbox_b] == ["found"]

    def test_loss_rate_statistic(self):
        clock, network, __, __ = make_pair(link=Link(loss_probability=0.5), seed=42)
        for i in range(200):
            network.send("a", "b", i)
        clock.run_until(10.0)
        assert 0.3 < network.stats.loss_rate < 0.7

    def test_in_flight_vs_send_time_down_stats(self):
        """Both failure shapes count as ``to_down_host`` and neither
        inflates ``delivered``/``total_latency`` — but only the
        send-time one returns ``False`` to the sender (mid-flight loss
        is invisible at send time, as on a real network)."""
        clock, network, __, inbox_b = make_pair()
        # Shape 1: target already down when the message is sent.
        network.set_host_up("b", False)
        assert network.send("a", "b", "at-send") is False
        assert network.stats.to_down_host == 1
        network.set_host_up("b", True)
        # Shape 2: target goes down while the message is in flight.
        assert network.send("a", "b", "mid-flight") is True
        network.set_host_up("b", False)
        clock.run_until(1.0)
        assert inbox_b == []
        assert network.stats.to_down_host == 2
        assert network.stats.sent == 2
        assert network.stats.delivered == 0
        assert network.stats.total_latency == 0.0
        assert network.stats.loss_rate == 1.0

    def test_down_host_checked_at_delivery_instant(self):
        """The in-flight check happens exactly at the delivery instant:
        a host that blinks down and back up while the message is on the
        wire still receives it."""
        clock, network, __, inbox_b = make_pair()  # 0.05 s latency
        network.send("a", "b", "blink")
        network.set_host_up("b", False)
        clock.run_until(0.01)
        network.set_host_up("b", True)
        clock.run_until(1.0)
        assert [p for __, p in inbox_b] == ["blink"]
        assert network.stats.delivered == 1
        assert network.stats.to_down_host == 0


class TestJitterAndBandwidth:
    def test_jitter_varies_latency(self):
        clock, network, __, inbox_b = make_pair(link=Link(base_latency=0.01, jitter=0.05))
        times = []
        network.host("b").handler = lambda s, p: times.append(clock.now())
        for i in range(20):
            network.send("a", "b", i)
        clock.run_until(1.0)
        assert len(set(times)) > 1
        assert all(0.01 <= t <= 0.06 + 1e-9 for t in times)

    def test_bandwidth_serializes_messages(self):
        # 8 kbit/s link, 1000-byte messages: 1 s each on the wire.
        clock, network, __, __ = make_pair(link=Link(base_latency=0.0, bandwidth_kbps=8.0))
        times = []
        network.host("b").handler = lambda s, p: times.append(clock.now())
        network.send("a", "b", "m1", size_bytes=1000)
        network.send("a", "b", "m2", size_bytes=1000)
        clock.run_until(10.0)
        assert times[0] == pytest.approx(1.0)
        assert times[1] == pytest.approx(2.0)

    def test_broadcast_reaches_everyone_but_sender(self):
        clock = VirtualClock()
        network = Network(clock)
        seen = {}
        for name in ("a", "b", "c"):
            seen[name] = []
            network.add_host(name, (lambda n: lambda s, p: seen[n].append(p))(name))
        network.set_default_link(Link(base_latency=0.01))
        count = network.broadcast("a", "hi")
        clock.run_until(1.0)
        assert count == 2
        assert seen["a"] == []
        assert seen["b"] == ["hi"]
        assert seen["c"] == ["hi"]

    def test_mean_latency_statistic(self):
        clock, network, __, __ = make_pair(link=Link(base_latency=0.1))
        network.send("a", "b", "x")
        clock.run_until(1.0)
        assert network.stats.mean_latency == pytest.approx(0.1)


class TestBroadcastChurnDeterminism:
    """``broadcast`` order (and therefore every seeded RNG draw) must be
    a pure function of the add/remove history, not of set/dict
    internals — the dynamics experiments lean on this for
    byte-reproducible runs under churn."""

    @staticmethod
    def _run(history, seed=7):
        """Replay an add/remove/broadcast history; returns the delivery
        order and the final stats tuple."""
        clock = VirtualClock()
        network = Network(clock, rng=random.Random(seed))
        deliveries = []

        def handler_for(name):
            return lambda s, p: deliveries.append((name, p))

        network.set_default_link(Link(base_latency=0.01, jitter=0.005))
        for op, name in history:
            if op == "add":
                network.add_host(name, handler_for(name))
            elif op == "down":
                network.set_host_up(name, False)
            elif op == "up":
                network.set_host_up(name, True)
            else:
                network.broadcast(name, f"from-{name}")
        clock.run_until(5.0)
        return deliveries, (network.stats.sent, network.stats.delivered)

    HISTORY = [
        ("add", "hub"), ("add", "n1"), ("add", "n2"), ("add", "n3"),
        ("broadcast", "hub"),
        ("down", "n2"), ("broadcast", "hub"),
        ("add", "n4"), ("up", "n2"), ("broadcast", "hub"),
        ("down", "n1"), ("down", "n3"), ("broadcast", "hub"),
    ]

    def test_identical_histories_give_identical_traces(self):
        first = self._run(self.HISTORY)
        second = self._run(self.HISTORY)
        assert first == second

    def test_delivery_order_follows_registration_order(self):
        """With equal links and no jitter, one broadcast delivers in
        host-registration order (the virtual clock's FIFO tie-break)."""
        clock = VirtualClock()
        network = Network(clock, rng=random.Random(0))
        deliveries = []
        for name in ("hub", "n1", "n2", "n3"):
            network.add_host(
                name, (lambda n: lambda s, p: deliveries.append(n))(name)
            )
        network.set_default_link(Link(base_latency=0.01))
        network.broadcast("hub", "tick")
        clock.run_until(1.0)
        assert deliveries == ["n1", "n2", "n3"]

    def test_down_then_up_host_keeps_its_slot(self):
        """Churning a host down and back up must not move it in the
        broadcast order (hosts are keyed by insertion, not liveness)."""
        base = [("add", "hub"), ("add", "n1"), ("add", "n2"), ("add", "n3")]
        churned = base + [
            ("down", "n2"), ("up", "n2"), ("broadcast", "hub"),
        ]
        plain = base + [("broadcast", "hub")]
        churned_trace, __ = self._run(churned)
        plain_trace, __ = self._run(plain)
        assert churned_trace == plain_trace


class TestReliableChannel:
    def _wired_channel(self, link, seed=0, **kwargs):
        clock = VirtualClock()
        network = Network(clock, rng=random.Random(seed))
        received = []
        channel_box = []

        def b_handler(sender, payload):
            channel_box[0].on_segment(payload)

        def a_handler(sender, payload):
            channel_box[0].on_ack(payload)

        network.add_host("a", a_handler)
        network.add_host("b", b_handler)
        network.connect_both("a", "b", link)
        channel = ReliableChannel(
            network, "a", "b", deliver=received.append, **kwargs
        )
        channel_box.append(channel)
        return clock, network, channel, received

    def test_delivers_in_order_over_lossless_link(self):
        clock, __, channel, received = self._wired_channel(Link(base_latency=0.01))
        for i in range(10):
            channel.send(i)
        clock.run_until(5.0)
        assert received == list(range(10))
        assert channel.pending() == 0

    def test_recovers_from_heavy_loss(self):
        clock, __, channel, received = self._wired_channel(
            Link(base_latency=0.01, loss_probability=0.4), seed=7
        )
        for i in range(20):
            channel.send(i)
        clock.run_until(60.0)
        assert received == list(range(20))
        assert channel.retransmissions > 0

    def test_in_order_despite_jitter_reordering(self):
        clock, __, channel, received = self._wired_channel(
            Link(base_latency=0.001, jitter=0.1), seed=3
        )
        for i in range(30):
            channel.send(i)
        clock.run_until(60.0)
        assert received == list(range(30))

    def test_breaks_after_max_retries_to_dead_host(self):
        clock, network, channel, received = self._wired_channel(
            Link(base_latency=0.01), max_retries=3
        )
        network.set_host_up("b", False)
        channel.send("x")
        clock.run_until(60.0)
        assert channel.broken
        assert received == []

    def test_send_on_broken_channel_raises(self):
        clock, network, channel, __ = self._wired_channel(
            Link(base_latency=0.01), max_retries=1
        )
        network.set_host_up("b", False)
        channel.send("x")
        clock.run_until(60.0)
        with pytest.raises(NetworkError):
            channel.send("y")

    def test_bad_timeout_rejected(self):
        clock = VirtualClock()
        network = Network(clock)
        network.add_host("a", lambda s, p: None)
        network.add_host("b", lambda s, p: None)
        with pytest.raises(NetworkError):
            ReliableChannel(network, "a", "b", deliver=lambda p: None, retransmit_timeout=0.0)

    @settings(max_examples=20, deadline=None)
    @given(
        loss=st.floats(min_value=0.0, max_value=0.6),
        count=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_property_exactly_once_in_order(self, loss, count, seed):
        clock, __, channel, received = self._wired_channel(
            Link(base_latency=0.005, jitter=0.02, loss_probability=loss), seed=seed
        )
        for i in range(count):
            channel.send(i)
        clock.run_until(120.0)
        assert received == list(range(count))


class TestStarTopology:
    def test_build_star_connects_all_clients(self):
        clock = VirtualClock()
        inboxes = {"server": []}

        def factory(name):
            inboxes[name] = []
            return lambda s, p: inboxes[name].append(p)

        star = build_star(
            clock, 5, factory, lambda s, p: inboxes["server"].append(p), seed=1
        )
        assert len(star.clients) == 5
        for client in star.clients:
            star.network.send(star.server, client, "ping")
            star.network.send(client, star.server, "pong")
        clock.run_until(1.0)
        assert len(inboxes["server"]) == 5
        assert all(inboxes[c] == ["ping"] for c in star.clients)

    def test_star_latencies_vary_per_client(self):
        clock = VirtualClock()
        star = build_star(
            clock, 8, lambda n: (lambda s, p: None), lambda s, p: None,
            jitter=0.0, seed=5,
        )
        arrival_times = {}

        def tracker(name):
            return lambda s, p: arrival_times.__setitem__(name, clock.now())

        for client in star.clients:
            star.network.host(client).handler = tracker(client)
            star.network.send(star.server, client, "ping")
        clock.run_until(1.0)
        assert len(set(arrival_times.values())) > 1
