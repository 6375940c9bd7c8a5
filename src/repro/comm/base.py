"""Transport abstraction: the interface the distributed runtimes speak.

The TeamNet master/worker runtime was originally hard-wired to TCP
sockets.  Extracting the three roles it actually relies on — an
*endpoint* (framed send/recv with metering), a *listener* (accepts
endpoints), and a *transport* (binds listeners, dials endpoints) — lets
the deterministic simulation testkit (:mod:`repro.testkit`) substitute an
in-process fabric with scriptable faults while production keeps the real
sockets.  Both implementations are structural: any object with the right
methods works, the ABCs below just document and enforce the contract for
the built-in ones.

Endpoint contract (duck-typed; see :class:`repro.comm.transport.MeteredSocket`):

* ``send(payload: bytes) -> None`` — write one framed message; raises
  ``ConnectionError``/``OSError`` when the peer is gone.
* ``recv(timeout: float | None = None) -> bytes`` — read one framed
  message; raises ``TimeoutError`` when no complete frame arrives in
  time and ``FrameError`` (a ``ConnectionError``) on peer disconnect.
  After a timeout the connection must be considered dead.
* ``close() -> None`` — idempotent teardown; unblocks pending ``recv``.
* ``stats`` — a :class:`repro.comm.transport.TransportStats` with
  message/byte counters including framing overhead.
* ``last_recv_latency_s`` (optional) — the *scripted transit delay* of
  the most recent message ``recv`` returned, on the simulated fabric.
  :class:`repro.comm.demux.ReplyDemux` reports it as the reply latency,
  so latency telemetry stays deterministic under the simulation's
  virtual clock; an endpoint without it (a real socket) has its replies
  timed by the demux, from when each was awaited to when it was read.
* ``fileno() -> int`` — polls readable when ``recv`` would not block
  (-1 once closed).  :class:`repro.comm.demux.DemuxGroup` polls these to
  read replies in arrival order; on the sim it is a readiness pipe.

Listener contract (see :class:`repro.comm.transport.Listener`):

* ``address`` / ``host`` / ``port`` — where peers dial.
* ``accept(timeout: float | None = None)`` — next endpoint; raises
  ``TimeoutError`` on the deadline, ``OSError`` once closed.
* ``close() -> None`` — stop accepting; pending ``accept`` raises.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["Transport"]


class Transport(ABC):
    """Factory for listeners and outbound connections.

    Implementations: :class:`repro.comm.transport.TcpTransport` (real
    framed TCP) and :class:`repro.testkit.sim_transport.SimTransport`
    (in-process deterministic simulation).
    """

    @abstractmethod
    def listen(self, host: str = "127.0.0.1", port: int = 0,
               backlog: int = 16):
        """Bind a listener.  ``port=0`` allocates a fresh port; an explicit
        port re-binds the same address (required for worker restarts)."""

    @abstractmethod
    def connect(self, host: str, port: int, retries: int = 50,
                delay: float = 0.05, timeout: float = 10.0):
        """Dial a listener, retrying while it comes up; returns an
        endpoint.  Raises ``ConnectionError`` when every retry fails."""
