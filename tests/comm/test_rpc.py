"""Tests for the RPC system (gRPC stand-in)."""

import threading

import numpy as np
import pytest

from repro.comm import RemoteError, RpcClient, RpcServer


@pytest.fixture
def echo_server():
    server = RpcServer()
    server.register("echo", lambda meta, arrays: (meta, arrays))
    server.register("square", lambda meta, arrays:
                    ({}, {"y": arrays["x"] ** 2}))

    def boom(meta, arrays):
        raise ValueError("deliberate failure")

    server.register("boom", boom)
    server.start()
    yield server
    server.stop()


class TestCalls:
    def test_echo(self, echo_server, rng):
        with RpcClient(*echo_server.address) as client:
            x = rng.standard_normal((3, 3))
            meta, arrays = client.call("echo", {"tag": 5}, {"x": x})
            assert meta["tag"] == 5
            np.testing.assert_array_equal(arrays["x"], x)

    def test_compute(self, echo_server):
        with RpcClient(*echo_server.address) as client:
            _, arrays = client.call("square", arrays={"x": np.arange(4.0)})
            np.testing.assert_array_equal(arrays["y"], [0, 1, 4, 9])

    def test_sequential_calls_same_connection(self, echo_server):
        with RpcClient(*echo_server.address) as client:
            for i in range(10):
                meta, _ = client.call("echo", {"i": i})
                assert meta["i"] == i

    def test_remote_exception_propagates(self, echo_server):
        with RpcClient(*echo_server.address) as client:
            with pytest.raises(RemoteError, match="deliberate failure"):
                client.call("boom")
            # Connection still usable after a handler error.
            meta, _ = client.call("echo", {"ok": True})
            assert meta["ok"]

    def test_unknown_method(self, echo_server):
        with RpcClient(*echo_server.address) as client:
            with pytest.raises(RemoteError, match="unknown method"):
                client.call("no_such_method")

    def test_multiple_concurrent_clients(self, echo_server):
        errors = []

        def worker(n):
            try:
                with RpcClient(*echo_server.address) as client:
                    for i in range(5):
                        meta, _ = client.call("echo", {"n": n, "i": i})
                        assert meta == {"n": n, "i": i, "method": "echo"} \
                            or meta["n"] == n
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors

    def test_client_stats(self, echo_server):
        with RpcClient(*echo_server.address) as client:
            client.call("echo", {"x": 1})
            assert client.stats.messages_sent == 1
            assert client.stats.messages_received == 1


class TestServerLifecycle:
    """Regressions: RpcServer used to own a copy of the accept/serve
    scaffolding without the worker's leak fixes."""

    def test_stop_leaves_no_serve_thread_with_clients_connected(self):
        server = RpcServer()
        server.register("echo", lambda meta, arrays: (meta, arrays))
        server.start()
        clients = [RpcClient(*server.address) for _ in range(5)]
        try:
            for client in clients:
                client.call("echo")
            threads = list(server._server._threads)
            assert len(threads) >= 5
            server.stop()
            # Each serve thread sat in a timeout-less recv on a client
            # that never hangs up; stop() must unblock it.
            for thread in threads:
                thread.join(timeout=2.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            for client in clients:
                client.close()
            server.stop()

    def test_thread_list_stays_bounded(self, echo_server):
        for i in range(50):
            with RpcClient(*echo_server.address) as client:
                client.call("echo", {"i": i})
        # Finished connection threads are reaped on accept, not kept one
        # per client ever served.
        assert len(echo_server._server._threads) <= 3
