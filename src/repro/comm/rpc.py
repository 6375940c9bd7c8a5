"""A minimal unary RPC system (the offline stand-in for gRPC).

The paper's SG-MoE-G baseline places each expert behind a remote procedure
call endpoint.  :class:`RpcServer` dispatches named methods over the framed
TCP transport; :class:`RpcClient` issues blocking unary calls.  Errors
raised by handlers propagate to the caller as :class:`RemoteError`.  All
endpoints meter traffic for the edge cost model.
"""

from __future__ import annotations

import threading
import traceback

import numpy as np

from . import protocol
from .server import FrameServer
from .transport import TcpTransport, TransportStats, connect

__all__ = ["RpcServer", "RpcClient", "RemoteError"]


class RemoteError(RuntimeError):
    """An exception raised inside a remote handler."""


class RpcServer:
    """Serves named handlers: ``handler(meta, arrays) -> (meta, arrays)``.

    A :class:`~repro.comm.server.FrameServer` whose one message kind is
    ``"call"``; ``stop()`` closes every client connection still open.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._server = FrameServer(TcpTransport(), host, port)
        self._server.register("call", self._call)
        self._handlers: dict[str, callable] = {}
        self.stats = TransportStats()
        self._stats_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return self._server.address

    def register(self, name: str, handler) -> None:
        """Register ``handler`` under method ``name``."""
        self._handlers[name] = handler

    def start(self) -> None:
        """Start accepting connections in a background thread."""
        self._server.start()

    def _call(self, request: protocol.Message, sock) -> None:
        # Replies are sent here rather than returned so each one is
        # metered as it goes out, while its connection is still open.
        sock.send(self._dispatch(request))
        with self._stats_lock:
            self.stats.merge(sock.stats)
            sock.stats.reset()

    def _dispatch(self, request: protocol.Message) -> bytes:
        method = request.meta.get("method", "")
        handler = self._handlers.get(method)
        if handler is None:
            return protocol.encode(
                "error", {"error": f"unknown method {method!r}"})
        try:
            meta, arrays = handler(request.meta, request.arrays)
            return protocol.encode("reply", meta or {}, arrays or {})
        except Exception:  # noqa: BLE001 - remote errors cross the wire
            return protocol.encode("error", {"error": traceback.format_exc()})

    def stop(self) -> None:
        self._server.stop()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False


class RpcClient:
    """Blocking unary RPC client (one connection, serialized calls)."""

    def __init__(self, host: str, port: int):
        self._sock = connect(host, port)
        self._lock = threading.Lock()

    @property
    def stats(self) -> TransportStats:
        return self._sock.stats

    def call(self, method: str, meta: dict | None = None,
             arrays: dict[str, np.ndarray] | None = None
             ) -> tuple[dict, dict[str, np.ndarray]]:
        """Invoke ``method`` remotely; returns (meta, arrays)."""
        request_meta = dict(meta or {})
        request_meta["method"] = method
        blob = protocol.encode("call", request_meta, arrays or {})
        with self._lock:
            self._sock.send(blob)
            reply = protocol.decode(self._sock.recv())
        if reply.kind == "error":
            raise RemoteError(reply.meta.get("error", "remote failure"))
        return reply.meta, reply.arrays

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
