"""FrameServer: the accept/serve/dispatch loop every listening node
shares, on the simulated fabric (no real sockets).

The ExpertWorker stop/restart/reap regressions live with the worker
(tests/distributed); these cover the base class's own contract and the
StandbyMaster built on it.
"""

import threading
from contextlib import contextmanager

from repro.comm import FrameServer, protocol
from repro.distributed.failover import StandbyMaster
from repro.testkit import SimNetwork, forbid_sockets


def echo(msg, sock):
    return protocol.encode("echoed", {"seq": msg.meta.get("seq")})


@contextmanager
def echo_server(**handlers):
    """A started FrameServer on a fresh simulated network, serving
    ``echo`` plus ``handlers``; yields ``(server, connect)``."""
    with forbid_sockets():
        network = SimNetwork()
        server = FrameServer(network.transport, "sim")
        server.register("echo", echo)
        for kind, handler in handlers.items():
            server.register(kind, handler)
        server.start()
        try:
            yield server, lambda: network.transport.connect(
                *server.address, retries=1)
        finally:
            server.stop()


def ask(sock, kind, meta=None, timeout=2.0):
    sock.send(protocol.encode(kind, meta or {}))
    return protocol.decode(sock.recv(timeout=timeout))


def assert_all_exit(threads, timeout=2.0):
    for thread in threads:
        thread.join(timeout=timeout)
    assert not any(thread.is_alive() for thread in threads)


class TestFrameServer:
    def test_stop_closes_tracked_connections(self):
        with echo_server() as (server, connect):
            clients = [connect() for _ in range(4)]
            for seq, sock in enumerate(clients):
                assert ask(sock, "echo", {"seq": seq}).meta["seq"] == seq
            threads = list(server._threads)
            assert len(threads) == 4
            server.stop()
            # The clients never hung up: only stop() closing its side
            # can have woken the serve threads out of recv.
            assert_all_exit(threads)
            assert server._threads == []
            for sock in clients:
                sock.close()

    def test_restart_rebinds_the_pinned_address(self):
        with echo_server() as (server, connect):
            address = server.address
            for cycle in range(3):
                server.start()  # a no-op on the first cycle
                assert server.address == address
                sock = connect()
                assert ask(sock, "echo", {"seq": cycle}).kind == "echoed"
                server.stop()
                assert server.listener is None
                sock.close()

    def test_unknown_kind_answered_with_seq_and_keeps_serving(self):
        with echo_server() as (server, connect):
            sock = connect()
            reply = ask(sock, "no-such-kind", {"seq": 41})
            assert reply.kind == protocol.ERROR
            assert "unexpected 'no-such-kind'" in reply.meta["error"]
            assert reply.meta["seq"] == 41
            assert ask(sock, "echo", {"seq": 42}).meta["seq"] == 42
            sock.close()

    def test_raising_handler_costs_an_error_reply_not_the_thread(self):
        def boom(msg, sock):
            raise ValueError("deliberate failure")

        with echo_server(boom=boom) as (server, connect):
            sock = connect()
            reply = ask(sock, "boom", {"seq": 7})
            assert reply.kind == protocol.ERROR
            assert "deliberate failure" in reply.meta["error"]
            assert reply.meta["seq"] == 7
            assert ask(sock, "echo", {"seq": 8}).kind == "echoed"
            sock.close()

    def test_malformed_frame_gets_an_error_then_the_connection_drops(self):
        with echo_server() as (server, connect):
            sock = connect()
            sock.send(b"definitely not a protocol frame")
            reply = protocol.decode(sock.recv(timeout=2.0))
            assert reply.kind == protocol.ERROR
            assert "bad message" in reply.meta["error"]
            assert_all_exit(list(server._threads))
            # A fresh connection is served as if nothing happened.
            again = connect()
            assert ask(again, "echo", {"seq": 1}).kind == "echoed"
            sock.close()
            again.close()

    def test_shutdown_and_hang_up_end_only_their_connection(self):
        with echo_server() as (server, connect):
            polite, rude, stays = connect(), connect(), connect()
            for sock in (polite, rude, stays):
                ask(sock, "echo", {"seq": 0})
            polite.send(protocol.encode(protocol.SHUTDOWN))
            rude.close()
            assert ask(stays, "echo", {"seq": 1}).meta["seq"] == 1
            stays.close()
            polite.close()

    def test_thread_list_bounded_after_many_closed_connections(self):
        with echo_server() as (server, connect):
            for seq in range(40):
                sock = connect()
                assert ask(sock, "echo", {"seq": seq}).kind == "echoed"
                sock.send(protocol.encode(protocol.SHUTDOWN))
                sock.close()
            assert len(server._threads) <= 3


class TestStandbyOnFrameServer:
    def test_stop_leaves_no_live_serve_thread(self):
        with forbid_sockets():
            network = SimNetwork()
            standby = StandbyMaster("spare", transport=network.transport,
                                    host="sim").start()
            baseline = threading.active_count()
            monitors = [network.transport.connect(*standby.address)
                        for _ in range(3)]
            for seq, sock in enumerate(monitors):
                pong = ask(sock, protocol.PING, {"seq": seq})
                assert pong.kind == protocol.PONG
                assert pong.meta == {"seq": seq, "standby": "spare"}
            threads = list(standby._server._threads)
            assert len(threads) == 3
            standby.stop()
            assert_all_exit(threads)
            assert threading.active_count() <= baseline
            for sock in monitors:
                sock.close()
