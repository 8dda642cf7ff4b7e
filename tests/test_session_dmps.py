"""Integration tests for the DMPS server/client session layer."""

import pytest

from repro.clock.virtual import VirtualClock
from repro.core.modes import FCMMode
from repro.net.simnet import Link, Network
from repro.session.dmps import DMPSClient, DMPSServer
from repro.session.messages import Heartbeat
from repro.session.presence import Light


def classroom(client_names=("teacher", "alice", "bob"), latency=0.01, **client_kwargs):
    """A server plus clients, all joined and settled."""
    clock = VirtualClock()
    network = Network(clock)
    network.set_default_link(Link(base_latency=latency))
    server = DMPSServer(clock, network)
    clients = {}
    for name in client_names:
        host = f"host-{name}"
        client = DMPSClient(name, host, network, **client_kwargs.get(name, {}))
        network.connect_both("server", host, Link(base_latency=latency))
        clients[name] = client
        client.join(is_chair=(name == "teacher"))
    clock.run_until(1.0)
    return clock, network, server, clients


class TestJoin:
    def test_clients_receive_welcome(self):
        __, __, __, clients = classroom()
        for client in clients.values():
            assert client.state.joined
            assert client.state.session_group == "session"
            assert client.state.mode is FCMMode.FREE_ACCESS

    def test_server_registers_members(self):
        __, __, server, __ = classroom()
        assert set(server.members()) == {"teacher", "alice", "bob"}

    def test_rejoin_is_idempotent(self):
        clock, __, server, clients = classroom()
        clients["alice"].join()
        clock.run_until(2.0)
        assert server.members().count("alice") == 1


class TestFreeAccessPosting:
    def test_everyone_can_post(self):
        clock, __, server, clients = classroom()
        clients["alice"].post("hello")
        clients["bob"].post("hi")
        clock.run_until(2.0)
        assert server.board().authors() == {"alice", "bob"}

    def test_posts_replicate_to_all_clients(self):
        clock, __, server, clients = classroom()
        clients["alice"].post("hello")
        clock.run_until(2.0)
        for client in clients.values():
            assert [e.content for e in client.board()] == ["hello"]
            assert client.replicas["session"].converged_with(server.board())


class TestEqualControl:
    def _equal_classroom(self):
        clock, network, server, clients = classroom()
        server.set_mode(FCMMode.EQUAL_CONTROL, by="teacher")
        clock.run_until(1.5)
        return clock, network, server, clients

    def test_mode_change_broadcast(self):
        clock, __, __, clients = self._equal_classroom()
        for client in clients.values():
            assert client.state.mode is FCMMode.EQUAL_CONTROL

    def test_only_token_holder_posts(self):
        clock, __, server, clients = self._equal_classroom()
        clients["alice"].request_floor()
        clock.run_until(2.0)
        clients["alice"].post("granted speech")
        clients["bob"].post("interruption")
        clock.run_until(3.0)
        assert server.board().authors() == {"alice"}
        assert server.board().rejected == 1

    def test_token_notify_reaches_clients(self):
        clock, __, __, clients = self._equal_classroom()
        clients["alice"].request_floor()
        clock.run_until(2.0)
        assert clients["bob"].state.token_holder == "alice"
        assert clients["alice"].holds_floor()

    def test_release_passes_to_queued_requester(self):
        clock, __, server, clients = self._equal_classroom()
        clients["alice"].request_floor()
        clients["bob"].request_floor()
        clock.run_until(2.0)
        clients["alice"].release_floor()
        clock.run_until(3.0)
        assert clients["bob"].holds_floor()
        clients["bob"].post("my turn")
        clock.run_until(4.0)
        assert "bob" in server.board().authors()

    def test_floor_decisions_recorded_with_latency(self):
        clock, __, __, clients = self._equal_classroom()
        clients["alice"].request_floor()
        clock.run_until(2.0)
        decision = clients["alice"].state.last_decision
        assert decision is not None
        assert decision.outcome == "granted"


class TestClockSync:
    def test_client_estimates_global_time(self):
        clock, __, __, clients = classroom(
            alice={"clock_offset": 2.0},
        )
        alice = clients["alice"]
        alice.sync_clock()
        clock.run_until(2.0)
        assert alice.sync.synchronized()
        assert alice.estimated_global_time() == pytest.approx(clock.now(), abs=0.05)

    def test_unsynced_client_falls_back_to_local(self):
        __, __, __, clients = classroom(alice={"clock_offset": 2.0})
        alice = clients["alice"]
        assert alice.estimated_global_time() == pytest.approx(alice.local_clock.now())


class TestPresenceIntegration:
    def test_disconnected_client_turns_red(self):
        clock, __, server, clients = classroom()
        for client in clients.values():
            client.start_heartbeats(0.25)
        clock.run_until(3.0)
        assert server.presence.light_of("alice") is Light.GREEN
        clients["alice"].disconnect()
        clock.run_until(6.0)
        assert server.presence.light_of("alice") is Light.RED

    def test_reconnect_turns_green_again(self):
        clock, __, server, clients = classroom()
        for client in clients.values():
            client.start_heartbeats(0.25)
        clock.run_until(3.0)
        clients["alice"].disconnect()
        clock.run_until(6.0)
        clients["alice"].reconnect()
        clock.run_until(8.0)
        assert server.presence.light_of("alice") is Light.GREEN

    def test_server_drops_unknown_messages_and_early_heartbeats(self):
        clock, network, server, clients = classroom()
        network.add_host("stranger", lambda s, p: None)
        network.connect_both("server", "stranger", Link(base_latency=0.01))
        network.send("stranger", "server", object())
        network.send("stranger", "server", Heartbeat(member="nobody", sent_at=1.0))
        clients["alice"].start_heartbeats(0.25)
        clock.run_until(3.0)
        assert server.presence.light_of("alice") is Light.GREEN
        assert network.stats.delivered > 2

    def test_heartbeats_stop_with_their_series(self):
        clock, network, __, clients = classroom()
        alice = clients["alice"]
        alice.start_heartbeats(0.25)
        clock.run_until(2.0)
        sent = network.stats.sent
        alice.stop_heartbeats()
        clock.run_until(4.0)
        assert network.stats.sent == sent
        assert clock.pending() == 1  # only the presence sweep is left

    def test_down_client_misses_board_updates_until_back(self):
        clock, __, server, clients = classroom()
        clients["alice"].disconnect()
        clients["bob"].post("while alice away")
        clock.run_until(2.0)
        assert clients["alice"].board() == []
        assert len(clients["bob"].board()) == 1


class TestDiscussionAndDirectContact:
    def test_direct_contact_private_board(self):
        clock, __, server, clients = classroom()
        group_id = server.open_direct_contact("alice", "bob")
        clock.run_until(2.0)  # invite forwarded + auto-accepted
        assert "bob" in server.control.registry.group(group_id)
        clients["alice"].post("psst", group=group_id)
        clock.run_until(3.0)
        assert [e.content for e in clients["bob"].board(group_id)] == ["psst"]
        # Teacher is not in the private group: no replica contents.
        assert clients["teacher"].board(group_id) == []

    def test_direct_contact_coexists_with_free_access(self):
        clock, __, server, clients = classroom()
        group_id = server.open_direct_contact("alice", "bob")
        clock.run_until(2.0)
        clients["alice"].post("to everyone")
        clients["alice"].post("privately", group=group_id)
        clock.run_until(3.0)
        assert [e.content for e in server.board()] == ["to everyone"]
        assert [e.content for e in server.board(group_id)] == ["privately"]

    def test_discussion_subgroup_posting(self):
        clock, __, server, clients = classroom()
        group_id = server.open_discussion("alice")
        server.invite(group_id, "alice", "bob")
        clock.run_until(1.5)  # invite forwarded, auto-accepted by bob
        clients["bob"].post("subgroup idea", group=group_id)
        clients["teacher"].post("not a member", group=group_id)
        clock.run_until(2.0)
        assert server.board(group_id).authors() == {"bob"}
        assert server.board(group_id).rejected == 1


class TestClientDrivenSubgroups:
    def test_client_opens_discussion_over_the_wire(self):
        clock, __, server, clients = classroom()
        clients["alice"].open_discussion(invitees=["bob"])
        clock.run_until(2.0)  # open + invite + auto-accept round trips
        assert len(clients["alice"].state.my_subgroups) == 1
        group_id = clients["alice"].state.my_subgroups[0]
        group = server.control.registry.group(group_id)
        assert group.chair == "alice"
        assert "bob" in group
        # The subgroup is immediately usable.
        clients["alice"].post("our own room", group=group_id)
        clock.run_until(3.0)
        assert [e.content for e in clients["bob"].board(group_id)] == [
            "our own room"
        ]

    def test_client_opens_direct_contact_over_the_wire(self):
        clock, __, server, clients = classroom()
        clients["bob"].open_direct_contact("alice")
        clock.run_until(2.0)
        group_id = clients["bob"].state.my_subgroups[0]
        assert server.control.mode_of(group_id).value == "direct_contact"
        assert "alice" in server.control.registry.group(group_id)

    def test_direct_contact_without_peer_ignored(self):
        clock, __, server, clients = classroom()
        from repro.session.messages import OpenSubgroupMsg

        clients["alice"].network.send(
            "host-alice", "server", OpenSubgroupMsg(creator="alice", kind="direct")
        )
        clock.run_until(2.0)
        assert server.control.registry.subgroups_of("session") == []

    def test_unknown_kind_ignored(self):
        clock, __, server, clients = classroom()
        from repro.session.messages import OpenSubgroupMsg

        clients["alice"].network.send(
            "host-alice", "server", OpenSubgroupMsg(creator="alice", kind="party")
        )
        clock.run_until(2.0)
        assert server.control.registry.subgroups_of("session") == []

    def test_outsider_cannot_open_subgroup(self):
        clock, network, server, clients = classroom()
        from repro.session.messages import OpenSubgroupMsg

        network.add_host("host-x", lambda s, p: None)
        network.connect_both("server", "host-x", Link(base_latency=0.01))
        network.send(
            "host-x", "server", OpenSubgroupMsg(creator="nobody", kind="discussion")
        )
        clock.run_until(2.0)
        assert server.control.registry.subgroups_of("session") == []
