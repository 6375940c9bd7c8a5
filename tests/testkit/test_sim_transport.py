"""Tests for the simulated transport fabric: fault semantics, virtual
time, determinism, and the no-real-sockets guard."""

import select
import socket
import threading
import time

import pytest

from repro.comm.transport import FrameError
from repro.testkit import (FaultSchedule, LinkFaults, SimClock, SimNetwork,
                           forbid_sockets)
from repro.testkit.faults import REPLY, REQUEST
from repro.testkit.guards import SocketOpened


def make_pair(schedule=None):
    """One connected (client, server) endpoint pair."""
    network = SimNetwork(schedule)
    listener = network.listen("sim", 0)
    client = network.connect("sim", listener.port)
    server = listener.accept(timeout=1.0)
    return network, client, server


class TestHappyPath:
    def test_send_recv_roundtrip(self):
        _, client, server = make_pair()
        client.send(b"hello")
        assert server.recv(timeout=1.0) == b"hello"
        server.send(b"world")
        assert client.recv(timeout=1.0) == b"world"

    def test_fifo_order(self):
        _, client, server = make_pair()
        for i in range(5):
            client.send(bytes([i]))
        assert [server.recv(timeout=1.0)[0] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_stats_meter_framing_overhead(self):
        _, client, server = make_pair()
        client.send(b"12345")
        server.recv(timeout=1.0)
        assert client.stats.messages_sent == 1
        assert client.stats.bytes_sent == 8 + 5  # mirrors the TCP framing
        assert server.stats.messages_received == 1
        assert server.stats.bytes_received == 8 + 5

    def test_close_unblocks_peer_with_frame_error(self):
        _, client, server = make_pair()
        client.close()
        with pytest.raises(FrameError):
            server.recv(timeout=1.0)

    def test_send_to_closed_peer_raises(self):
        _, client, server = make_pair()
        server.close()
        with pytest.raises(ConnectionError):
            client.send(b"x")


class TestListener:
    def test_accept_timeout(self):
        network = SimNetwork()
        listener = network.listen("sim", 0)
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            listener.accept(timeout=0.05)
        assert time.monotonic() - start < 1.0

    def test_closed_listener_raises_oserror(self):
        network = SimNetwork()
        listener = network.listen("sim", 0)
        listener.close()
        with pytest.raises(OSError):
            listener.accept(timeout=0.1)

    def test_connect_to_unbound_address_fails_fast(self):
        network = SimNetwork()
        start = time.monotonic()
        with pytest.raises(ConnectionError):
            network.connect("sim", 1, retries=50)
        assert time.monotonic() - start < 0.5  # no real retry sleeps

    def test_rebind_same_port_after_close(self):
        """Worker restarts re-listen on their pinned port."""
        network = SimNetwork()
        listener = network.listen("sim", 0)
        port = listener.port
        with pytest.raises(OSError):
            network.listen("sim", port)  # double bind refused
        listener.close()
        rebound = network.listen("sim", port)
        assert rebound.port == port


class TestFaults:
    def test_drop_times_out_virtually(self):
        """A dropped reply must cost zero real time: the tombstone turns
        the receiver's 10-second deadline into an instant TimeoutError."""
        schedule = FaultSchedule(seed=0, request=LinkFaults(drop=1.0))
        _, client, server = make_pair(schedule)
        client.send(b"doomed")
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            server.recv(timeout=10.0)
        assert time.monotonic() - start < 1.0
        # The sender's own tombstone: no answer is coming back either.
        with pytest.raises(TimeoutError):
            client.recv(timeout=10.0)

    def test_latency_beyond_deadline_times_out_without_sleeping(self):
        schedule = FaultSchedule(seed=0,
                                 request=LinkFaults(latency=(50.0, 60.0)))
        network, client, server = make_pair(schedule)
        client.send(b"slow")
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            server.recv(timeout=5.0)
        assert time.monotonic() - start < 1.0
        assert network.clock.now >= 5.0  # the wait happened in virtual time

    def test_latency_within_deadline_delivers_and_advances_clock(self):
        schedule = FaultSchedule(seed=0,
                                 request=LinkFaults(latency=(2.0, 3.0)))
        network, client, server = make_pair(schedule)
        client.send(b"delayed")
        start = time.monotonic()
        assert server.recv(timeout=10.0) == b"delayed"
        assert time.monotonic() - start < 1.0
        assert 2.0 <= network.clock.now <= 3.0

    def test_duplicate_delivers_twice(self):
        schedule = FaultSchedule(seed=0, request=LinkFaults(duplicate=1.0))
        _, client, server = make_pair(schedule)
        client.send(b"twice")
        assert server.recv(timeout=1.0) == b"twice"
        assert server.recv(timeout=1.0) == b"twice"

    def test_reorder_jumps_the_queue(self):
        # First message heavily delayed but queued; the second reorders in
        # front of it — FIFO would deliver b"first" first otherwise.
        class _Schedule(FaultSchedule):
            def link(self, conn_id, direction, address):
                stream = super().link(conn_id, direction, address)
                if direction == REQUEST:
                    from repro.testkit.faults import Delivery
                    decisions = iter([Delivery(), Delivery(reorder=True)])
                    stream.next = lambda: next(decisions)
                return stream

        _, client, server = make_pair(_Schedule(seed=0))
        client.send(b"first")
        client.send(b"second")
        assert server.recv(timeout=1.0) == b"second"
        assert server.recv(timeout=1.0) == b"first"

    def test_kill_mid_frame(self):
        schedule = FaultSchedule(seed=0, request=LinkFaults(kill_after=1))
        _, client, server = make_pair(schedule)
        client.send(b"ok")
        assert server.recv(timeout=1.0) == b"ok"
        client.send(b"never-arrives")  # the kill fires here
        with pytest.raises(FrameError):
            server.recv(timeout=1.0)
        with pytest.raises(ConnectionError):
            client.send(b"link-is-dead")

    def test_per_address_targeting(self):
        network = SimNetwork()
        a = network.listen("sim", 0)
        b = network.listen("sim", 0)
        schedule = FaultSchedule(seed=0, per_address={
            ("sim", b.port): {REQUEST: LinkFaults(drop=1.0)}})
        network.schedule = schedule
        ca = network.connect("sim", a.port)
        cb = network.connect("sim", b.port)
        sa = a.accept(timeout=1.0)
        sb = b.accept(timeout=1.0)
        ca.send(b"x")
        cb.send(b"x")
        assert sa.recv(timeout=1.0) == b"x"       # untargeted link is clean
        with pytest.raises(TimeoutError):
            sb.recv(timeout=1.0)                   # targeted link drops


def readable(endpoint):
    return bool(select.select([endpoint.fileno()], [], [], 0)[0])


class TestReadiness:
    """``fileno`` polls readable exactly while ``recv`` would not wait
    for the peer."""

    def test_pipe_follows_the_queue(self):
        _, client, server = make_pair()
        assert not readable(client)
        server.send(b"a")
        server.send(b"b")
        assert readable(client)
        client.recv(timeout=1.0)
        assert readable(client)
        client.recv(timeout=1.0)
        assert not readable(client)
        assert server._pipe is None  # never polled, never piped
        client.close()
        server.close()
        assert client._pipe is None

    def test_tombstone_kill_and_peer_close_are_ready(self):
        schedule = FaultSchedule(seed=0, reply=LinkFaults(drop=1.0))
        _, client, server = make_pair(schedule)
        assert not readable(client)
        server.send(b"lost")
        assert readable(client)
        with pytest.raises(TimeoutError):
            client.recv(timeout=1.0)
        assert not readable(client)
        server.close()
        assert readable(client)
        client.close()
        _, client, server = make_pair(FaultSchedule(
            seed=0, reply=LinkFaults(kill_after=0)))
        assert not readable(client)
        server.send(b"never-arrives")
        assert readable(client)
        with pytest.raises(FrameError):
            client.recv(timeout=1.0)
        assert client.fileno() == -1  # the kill closed this end
        client.close()  # ... and its owner's close closes the pipe
        server.close()
        assert client._pipe is None

    def test_close_wakes_a_blocked_poll(self):
        _, client, _ = make_pair()
        poller = select.poll()
        poller.register(client.fileno(), select.POLLIN)
        timer = threading.Timer(0.05, client.close)
        timer.start()
        start = time.monotonic()
        try:
            assert poller.poll(5000)
        finally:
            timer.join()
        assert time.monotonic() - start < 2.0
        assert client.fileno() == -1


class TestDeterminism:
    def test_same_seed_same_decision_stream(self):
        config = LinkFaults(drop=0.3, duplicate=0.2, reorder=0.2,
                            latency=(0.1, 0.9))
        a = FaultSchedule(seed=7).link(3, REPLY, ("sim", 49152))
        b = FaultSchedule(seed=7).link(3, REPLY, ("sim", 49152))
        a.config = b.config = config
        for _ in range(64):
            assert a.next() == b.next()

    def test_different_links_get_independent_streams(self):
        config = LinkFaults(drop=0.5)
        s = FaultSchedule(seed=7)
        a = s.link(0, REQUEST, ("sim", 49152))
        b = s.link(1, REQUEST, ("sim", 49152))
        a.config = b.config = config
        decisions_a = [a.next().drop for _ in range(32)]
        decisions_b = [b.next().drop for _ in range(32)]
        assert decisions_a != decisions_b

    def test_schedule_serialization_roundtrip(self):
        schedule = FaultSchedule(
            seed=11,
            request=LinkFaults(drop=0.1, latency=(0.2, 0.5)),
            reply=LinkFaults(duplicate=0.3, kill_after=2),
            per_address={("sim", 49153): {REPLY: LinkFaults(drop=1.0)}})
        restored = FaultSchedule.from_dict(schedule.to_dict())
        assert restored == schedule


class TestClockAndGuards:
    def test_clock_never_rewinds(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance_to(2.0)
        assert clock.now == 5.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_forbid_sockets_blocks_real_sockets(self):
        with forbid_sockets():
            with pytest.raises(SocketOpened):
                socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # and restores afterwards
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.close()

    def test_sim_network_opens_no_real_sockets(self):
        with forbid_sockets():
            _, client, server = make_pair()
            client.send(b"in-process only")
            assert server.recv(timeout=1.0) == b"in-process only"

    def test_invalid_fault_rates_rejected(self):
        with pytest.raises(ValueError):
            LinkFaults(drop=1.5)
        with pytest.raises(ValueError):
            LinkFaults(latency=(2.0, 1.0))
        with pytest.raises(ValueError):
            FaultSchedule().link(0, "sideways", ("sim", 1))
