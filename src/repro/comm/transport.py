"""Framed TCP transport.

The paper's TeamNet implementation communicates "through TCP sockets over
WiFi.  Each edge device runs a listening socket to accept incoming data."
This module provides exactly that: length-prefixed message framing over TCP
plus listener/connector helpers, and a byte/message meter used to feed the
edge cost model (the simulated WiFi replays these counters).
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from .base import Transport

__all__ = ["FrameError", "TransportStats", "send_frame", "recv_frame",
           "Listener", "connect", "MeteredSocket", "TcpTransport"]

_HEADER = struct.Struct(">Q")  # 8-byte big-endian length prefix
MAX_FRAME_BYTES = 1 << 31      # 2 GiB sanity bound


class FrameError(ConnectionError):
    """Raised on malformed frames or peer disconnect mid-frame."""


@dataclass
class TransportStats:
    """Message/byte counters for one endpoint.

    ``bytes_sent`` includes framing overhead, mirroring what actually goes
    on the wire; the edge network model charges per message and per byte.
    """

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_received: int = 0
    bytes_received: int = 0

    def reset(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.bytes_received = 0

    def merge(self, other: "TransportStats") -> None:
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.messages_received += other.messages_received
        self.bytes_received += other.bytes_received


def send_frame(sock: socket.socket, payload: bytes,
               stats: TransportStats | None = None) -> None:
    """Write one length-prefixed frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {len(payload)} bytes")
    sock.sendall(_HEADER.pack(len(payload)) + payload)
    if stats is not None:
        stats.messages_sent += 1
        stats.bytes_sent += _HEADER.size + len(payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise FrameError("peer closed connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket,
               stats: TransportStats | None = None) -> bytes:
    """Read one length-prefixed frame."""
    header = _recv_exact(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {length} bytes")
    payload = _recv_exact(sock, length)
    if stats is not None:
        stats.messages_received += 1
        stats.bytes_received += _HEADER.size + length
    return payload


class MeteredSocket:
    """A socket wrapper that frames messages and meters traffic."""

    def __init__(self, sock: socket.socket,
                 stats: TransportStats | None = None):
        self.sock = sock
        self.stats = stats if stats is not None else TransportStats()

    def fileno(self) -> int:
        """The socket's descriptor (-1 once closed), for polling."""
        return self.sock.fileno()

    def send(self, payload: bytes) -> None:
        send_frame(self.sock, payload, self.stats)

    def recv(self, timeout: float | None = None) -> bytes:
        """Read one frame; with ``timeout`` set, raises TimeoutError if no
        complete frame arrives in time (the connection should then be
        considered dead — a partial frame may have been consumed).  A
        zero wait takes only a frame already queued."""
        if timeout is None:
            return recv_frame(self.sock, self.stats)
        previous = self.sock.gettimeout()
        self.sock.settimeout(timeout)
        try:
            return recv_frame(self.sock, self.stats)
        except BlockingIOError as exc:  # a zero wait is non-blocking
            raise TimeoutError("no complete frame queued") from exc
        finally:
            try:
                self.sock.settimeout(previous)
            except OSError:
                pass

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class Listener:
    """A listening socket that accepts framed-transport peers."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 backlog: int = 16):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self.host, self.port = self._sock.getsockname()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def fileno(self) -> int:
        return self._sock.fileno()

    def accept(self, timeout: float | None = None) -> MeteredSocket:
        self._sock.settimeout(timeout)
        conn, _ = self._sock.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return MeteredSocket(conn)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


def connect(host: str, port: int, retries: int = 50,
            delay: float = 0.05, timeout: float = 10.0) -> MeteredSocket:
    """Connect to a listener, retrying while it comes up.

    ``timeout`` bounds each individual connection attempt — reconnect
    paths pass a small value so probing a dead peer stays cheap.
    """
    last_error: Exception | None = None
    for _ in range(max(1, retries)):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
            return MeteredSocket(sock)
        except OSError as exc:
            last_error = exc
            time.sleep(delay)
    raise ConnectionError(f"could not connect to {host}:{port}: {last_error}")


class TcpTransport(Transport):
    """The production transport: framed TCP sockets (see module docstring).

    This is the default wired into the distributed runtimes; the
    simulation testkit swaps in ``repro.testkit.SimTransport`` instead.
    """

    def listen(self, host: str = "127.0.0.1", port: int = 0,
               backlog: int = 16) -> Listener:
        return Listener(host, port, backlog)

    def connect(self, host: str, port: int, retries: int = 50,
                delay: float = 0.05, timeout: float = 10.0) -> MeteredSocket:
        return connect(host, port, retries=retries, delay=delay,
                       timeout=timeout)
