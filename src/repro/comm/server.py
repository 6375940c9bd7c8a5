"""The listening side of every framed endpoint: one accept loop, one
serve loop, one kind → handler table.

The paper's edge nodes each run "a listening socket to accept incoming
data".  Here the expert worker, the standby master and the RPC server
do, and :class:`FrameServer` is the part they share, so connection
tracking, thread reaping and restart are proven once.  It speaks only
the :class:`~repro.comm.base.Transport` contract, which is what lets
the simulated fabric stand in for real sockets.
"""

from __future__ import annotations

import threading

from . import protocol
from .base import Transport

__all__ = ["FrameServer"]


class FrameServer:
    """Accepts framed connections (one serve thread each) and dispatches
    every decoded message by ``kind``.

    A handler is ``handler(msg, sock) -> bytes | None``: the returned
    blob is sent back on the connection; ``None`` means no reply
    (election tokens) or that the handler sent one itself (the RPC
    server, which meters each reply).  A new message kind is one
    ``register`` call; the loop never changes.

    ``stop()`` followed by ``start()`` listens on the *same* port (pinned
    at construction), so a peer holding the old address can reconnect.
    What every connection gets, whatever the handlers do:

    * a malformed frame is answered with ``ERROR "bad message: …"`` and
      the connection dropped — nothing further on that stream can be
      trusted;
    * an unregistered kind is answered with ``ERROR "unexpected …"``
      echoing the frame's ``seq``, and serving continues;
    * a handler that raises costs the sender an ``ERROR`` reply, never
      the serve thread;
    * ``SHUTDOWN``, a peer that hangs up (even mid-reply) or ``stop()``
      ends the connection's thread.
    """

    def __init__(self, transport: Transport, host: str = "127.0.0.1",
                 port: int = 0):
        self._transport = transport
        self._host = host
        self._listener = transport.listen(host, port)
        self._port = self._listener.port  # pin the port for restarts
        self._handlers: dict[str, callable] = {}
        self._running = False
        self._threads: list[threading.Thread] = []
        self._acceptor: threading.Thread | None = None
        # Accepted connections, tracked so stop() can close them: a serve
        # thread blocks in a timeout-less recv between requests, and only
        # closing its socket unblocks it — otherwise every stop/start
        # cycle leaks one thread per connection a client held open.
        self._conns: list = []
        self._conn_lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return (self._host, self._port)

    @property
    def listener(self):
        """The bound listener (None while stopped)."""
        return self._listener

    @property
    def running(self) -> bool:
        return self._running

    def register(self, kind: str, handler) -> None:
        """Serve frames of ``kind`` with ``handler(msg, sock)``."""
        self._handlers[kind] = handler

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        if self._running:
            return
        if self._listener is None:
            self._listener = self._transport.listen(self._host, self._port)
        self._running = True
        self._acceptor = threading.Thread(target=self._accept_loop,
                                          args=(self._listener,), daemon=True)
        self._acceptor.start()

    def stop(self) -> None:
        self._running = False
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        # Close every live connection: serve threads blocked in recv wake
        # with a connection error and exit instead of leaking.
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for sock in conns:
            try:
                sock.close()
            except (ConnectionError, OSError):
                pass
        if self._acceptor is not None:
            # Wait out the acceptor's poll window so the kernel fully
            # releases the listening port — a restart rebinds the same one.
            self._acceptor.join(timeout=1.0)
            self._acceptor = None
        for thread in self._threads:
            thread.join(timeout=1.0)
        self._threads = [t for t in self._threads if t.is_alive()]

    # ------------------------------------------------------------- serving
    def _accept_loop(self, listener) -> None:
        while self._running and listener is self._listener:
            try:
                sock = listener.accept(timeout=0.2)
            except TimeoutError:
                continue
            except OSError:
                return
            # Reap finished connection threads so the list stays bounded
            # under heavy traffic instead of growing one entry per client.
            self._threads = [t for t in self._threads if t.is_alive()]
            with self._conn_lock:
                self._conns.append(sock)
            worker = threading.Thread(target=self._serve, args=(sock,),
                                      daemon=True)
            # Track before starting: the thread may answer its client
            # before this loop runs again.
            self._threads.append(worker)
            worker.start()

    def _serve(self, sock) -> None:
        try:
            with sock:
                while self._running:
                    try:
                        msg = protocol.decode(sock.recv())
                    except protocol.ProtocolError as exc:
                        # Malformed manifest from an untrusted peer: tell
                        # it why, then drop the connection rather than
                        # trust anything further on this stream.
                        sock.send(protocol.encode(
                            protocol.ERROR, {"error": f"bad message: {exc}"}))
                        return
                    if msg.kind == protocol.SHUTDOWN:
                        return
                    reply = self._dispatch(msg, sock)
                    if reply is not None:
                        sock.send(reply)
        except (ConnectionError, OSError):
            # The peer hung up (possibly right before our reply, e.g.
            # after sending garbage): that ends this connection, nothing
            # more.
            return
        finally:
            with self._conn_lock:
                if sock in self._conns:
                    self._conns.remove(sock)

    def _dispatch(self, msg: protocol.Message, sock) -> bytes | None:
        # Error replies echo the request's seq like every other reply, so
        # the sender can correlate them with the request that caused them.
        handler = self._handlers.get(msg.kind)
        if handler is None:
            return protocol.encode(protocol.ERROR, {
                "error": f"unexpected {msg.kind!r}",
                "seq": msg.meta.get("seq")})
        try:
            return handler(msg, sock)
        except (ConnectionError, OSError):
            raise
        except Exception as exc:  # noqa: BLE001 - reply, don't die
            return protocol.encode(protocol.ERROR, {
                "error": f"{msg.kind}: {exc}", "seq": msg.meta.get("seq")})
