"""Tests for the framed TCP transport."""

import select
import socket
import struct
import threading

import numpy as np
import pytest

from repro.comm import (FrameError, Listener, TransportStats, connect,
                        recv_frame, send_frame)


def socket_pair():
    """A connected (client, server) MeteredSocket pair on localhost."""
    listener = Listener()
    result = {}

    def accept():
        result["server"] = listener.accept(timeout=5.0)

    thread = threading.Thread(target=accept)
    thread.start()
    client = connect(*listener.address)
    thread.join(timeout=5.0)
    listener.close()
    return client, result["server"]


class TestFraming:
    def test_roundtrip(self):
        client, server = socket_pair()
        try:
            client.send(b"hello world")
            assert server.recv() == b"hello world"
        finally:
            client.close()
            server.close()

    def test_empty_payload(self):
        client, server = socket_pair()
        try:
            client.send(b"")
            assert server.recv() == b""
        finally:
            client.close()
            server.close()

    def test_large_payload(self):
        # Receive concurrently: a 4 MiB frame exceeds kernel socket
        # buffers, so a single-threaded send-then-recv would deadlock.
        client, server = socket_pair()
        received = {}

        def reader():
            received["payload"] = server.recv()

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            payload = np.random.default_rng(0).bytes(4 * 1024 * 1024)
            client.send(payload)
            thread.join(timeout=10)
            assert received["payload"] == payload
        finally:
            client.close()
            server.close()

    def test_message_order_preserved(self):
        client, server = socket_pair()
        try:
            for i in range(20):
                client.send(f"msg{i}".encode())
            received = [server.recv().decode() for i in range(20)]
            assert received == [f"msg{i}" for i in range(20)]
        finally:
            client.close()
            server.close()

    def test_peer_close_raises_frame_error(self):
        client, server = socket_pair()
        client.close()
        with pytest.raises((FrameError, ConnectionError, OSError)):
            server.recv()
        server.close()

    def test_oversized_frame_rejected_on_receive(self):
        a, b = socket.socketpair()
        try:
            # Forge an absurdly large length header.
            a.sendall((1 << 40).to_bytes(8, "big"))
            with pytest.raises(FrameError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected_on_send(self, monkeypatch):
        import repro.comm.transport as transport
        monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 16)
        a, b = socket.socketpair()
        try:
            with pytest.raises(FrameError):
                send_frame(a, b"x" * 32)
        finally:
            a.close()
            b.close()


class TestStats:
    def test_counters(self):
        client, server = socket_pair()
        try:
            client.send(b"abcd")
            server.recv()
            assert client.stats.messages_sent == 1
            assert client.stats.bytes_sent == 8 + 4
            assert server.stats.messages_received == 1
            assert server.stats.bytes_received == 8 + 4
        finally:
            client.close()
            server.close()

    def test_reset_and_merge(self):
        stats = TransportStats(1, 10, 2, 20)
        other = TransportStats(1, 5, 1, 5)
        stats.merge(other)
        assert (stats.messages_sent, stats.bytes_sent) == (2, 15)
        assert (stats.messages_received, stats.bytes_received) == (3, 25)
        stats.reset()
        assert stats.messages_sent == 0 and stats.bytes_received == 0


def wait_readable(sock, timeout: float = 5.0) -> None:
    """Block until ``sock`` (a MeteredSocket) has bytes to read."""
    readable, _, _ = select.select([sock], [], [], timeout)
    assert readable, "nothing arrived"


class TestZeroWaitRecv:
    """``recv(timeout=0.0)`` takes only a frame already queued; anything
    less is the TimeoutError the endpoint contract promises, never the
    non-blocking socket's BlockingIOError."""

    def test_queued_frame_is_taken(self):
        client, server = socket_pair()
        try:
            client.send(b"ready")
            wait_readable(server)
            assert server.recv(timeout=0.0) == b"ready"
        finally:
            client.close()
            server.close()

    def test_empty_socket_times_out(self):
        client, server = socket_pair()
        try:
            with pytest.raises(TimeoutError):
                server.recv(timeout=0.0)
        finally:
            client.close()
            server.close()

    def test_half_sent_frame_times_out(self):
        client, server = socket_pair()
        try:
            # A header promising 10 bytes, followed by only 4 of them.
            client.sock.sendall(struct.pack(">Q", 10) + b"half")
            wait_readable(server)
            with pytest.raises(TimeoutError):
                server.recv(timeout=0.0)
        finally:
            client.close()
            server.close()


class TestListener:
    def test_ephemeral_port_assigned(self):
        listener = Listener()
        assert listener.port > 0
        listener.close()

    def test_accept_timeout(self):
        listener = Listener()
        with pytest.raises(TimeoutError):
            listener.accept(timeout=0.05)
        listener.close()

    def test_connect_retries_then_fails(self):
        with pytest.raises(ConnectionError):
            connect("127.0.0.1", 1, retries=2, delay=0.01)
