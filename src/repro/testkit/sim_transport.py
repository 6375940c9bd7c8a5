"""In-process simulated transport implementing :class:`repro.comm.base.Transport`.

The fabric mirrors the framed-TCP semantics the distributed runtimes
rely on — ordered delivery per connection, ``TimeoutError`` on a missed
recv deadline, ``FrameError`` on a dead peer — without opening a single
real socket or sleeping a single real millisecond:

* **Latency** is virtual: each message carries its scripted transit
  delay; a receiver with a deadline delivers iff that delay fits within
  the deadline, else jumps the clock by the timeout and raises
  ``TimeoutError`` immediately.  The comparison uses only the message's
  own delay and the receiver's own timeout — never the shared clock — so
  delivery decisions are a pure function of the fault schedule and cannot
  depend on how threads interleave.  The shared
  :class:`~repro.testkit.clock.SimClock` advances as a monotonic
  *observability* record of time spent, not as a decision input.
* **Drops** leave a tombstone on *both* ends of the link, so a receiver
  waiting on a request/response exchange can conclude "nothing is
  coming" and time out virtually instead of sleeping out its deadline.
* **Kills** enqueue a poison frame: the receiver that reaches it sees a
  ``FrameError`` exactly where a TCP peer would see a connection die
  mid-frame, and the sender's next use of the link fails too.
* **Readiness** is a real pipe, the fabric's one OS resource: made by
  ``fileno`` (only polled peer connections ask), readable exactly while
  ``recv`` would not wait for the peer, closed with the endpoint.

Blocking only happens while a real in-process peer is genuinely
computing (condition-variable waits that end the moment the peer sends),
which is what makes a full master/worker inference run in microseconds.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque

from ..comm.base import Transport
from ..comm.transport import FrameError, TransportStats
from .clock import SimClock
from .faults import REPLY, REQUEST, FaultSchedule, LinkStream

__all__ = ["SimEndpoint", "SimListener", "SimNetwork", "SimTransport"]

_HEADER_BYTES = 8  # mirror the TCP framing overhead in the byte meters

_KILL = object()   # poison frame: connection died mid-frame


class _Entry:
    """One in-flight message on a link.

    ``delay`` is the scripted transit time (the decision input);
    ``arrival`` is the absolute virtual arrival stamped at send time
    (used only to advance the observability clock on delivery).
    """

    __slots__ = ("payload", "arrival", "delay")

    def __init__(self, payload, arrival: float, delay: float):
        self.payload = payload
        self.arrival = arrival
        self.delay = delay


class SimEndpoint:
    """One end of a simulated connection (the ``MeteredSocket`` stand-in).

    Delivery is FIFO per link (a stream transport preserves order no
    matter how packets behaved underneath); the *reorder* fault is an
    explicit queue-jump, and scripted latency decides delivery-vs-timeout
    against the receiver's deadline on the virtual clock.
    """

    def __init__(self, clock: SimClock):
        self.stats = TransportStats()
        self.last_recv_latency_s = 0.0
        self._clock = clock
        self._cond = threading.Condition()
        self._queue: deque[_Entry] = deque()
        self._lost = 0            # sent-but-doomed messages on this link
        self._closed = False
        self._peer_closed = False
        self._link_dead = False   # a kill fault fired on this connection
        self._peer: SimEndpoint | None = None
        self._faults: LinkStream | None = None
        self._pipe: tuple[int, int] | None = None  # (read, write) fds
        self._ready = False       # the pipe holds its one byte

    # ---------------------------------------------------------------- send
    def send(self, payload: bytes) -> None:
        peer = self._peer
        with self._cond:
            if self._closed or self._link_dead:
                raise ConnectionError("simulated connection is closed")
            if self._peer_closed:
                raise ConnectionError("simulated peer is gone")
            self.stats.messages_sent += 1
            self.stats.bytes_sent += _HEADER_BYTES + len(payload)
            decision = self._faults.next()
        if decision.kill:
            with self._cond:
                self._link_dead = True
            peer._push(_KILL, self._clock.now, 0.0, front=False)
            return
        if decision.drop:
            # Tombstones on both ends: the receiver learns its deadline
            # cannot be met, and (request/response being the protocol's
            # shape) the sender learns no answer will come back either.
            peer._note_lost()
            self._note_lost()
            return
        if decision.tamper and len(payload) > 0:
            # Flip one bit of one byte in transit.  The length prefix and
            # JSON header usually survive (the byte is picked uniformly,
            # and array payloads dominate the frame), so the frame still
            # parses — the corruption is *silent* and only the data-plane
            # integrity layer can catch it.
            index = min(int(decision.tamper_u * len(payload)),
                        len(payload) - 1)
            tampered = bytearray(payload)
            tampered[index] ^= 0x40
            payload = bytes(tampered)
        arrival = self._clock.now + decision.delay
        peer._push(payload, arrival, decision.delay, front=decision.reorder)
        if decision.duplicate:
            peer._push(payload, arrival, decision.delay, front=False)

    def _push(self, payload, arrival: float, delay: float,
              front: bool) -> None:
        with self._cond:
            if self._closed:
                return  # delivered into the void
            entry = _Entry(payload, arrival, delay)
            if front:
                self._queue.appendleft(entry)
            else:
                self._queue.append(entry)
            self._signal()
            self._cond.notify_all()

    def _note_lost(self) -> None:
        with self._cond:
            self._lost += 1
            self._signal()
            self._cond.notify_all()

    # ---------------------------------------------------------------- recv
    def recv(self, timeout: float | None = None) -> bytes:
        """Read one message.

        Scripted latency and drops resolve against the *virtual* clock —
        a doomed wait raises ``TimeoutError`` without sleeping.  The only
        real waiting is for a live peer thread that has not sent yet, with
        ``timeout`` (if any) as the real-time backstop.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + max(0.0, timeout))
        with self._cond:
            while True:
                if self._closed:
                    raise FrameError("simulated connection closed")
                if self._queue:
                    entry = self._queue[0]
                    if entry.payload is _KILL:
                        self._closed = True
                        self._cond.notify_all()
                        raise FrameError("peer closed connection mid-frame")
                    if timeout is not None and entry.delay > timeout:
                        # The head of the stream is delayed beyond the
                        # deadline; a stream transport cannot skip it.
                        # Deliberately compared per message (scripted
                        # delay vs this recv's own timeout), NOT against
                        # the shared clock: concurrent readers advancing
                        # the clock must not flip each other's outcomes.
                        self._clock.advance(timeout)
                        raise TimeoutError(
                            f"no frame within {timeout}s (virtual)")
                    self._queue.popleft()
                    self._signal()
                    self._clock.advance_to(entry.arrival)
                    # The scripted transit delay IS the observed latency:
                    # reading it off the message (not the shared clock)
                    # keeps latency telemetry a pure function of the
                    # fault schedule, independent of thread interleaving.
                    self.last_recv_latency_s = entry.delay
                    self.stats.messages_received += 1
                    self.stats.bytes_received += (_HEADER_BYTES
                                                  + len(entry.payload))
                    return entry.payload
                if self._lost > 0 and timeout is not None:
                    self._lost -= 1
                    self._signal()
                    self._clock.advance(timeout)
                    raise TimeoutError(
                        f"no frame within {timeout}s (message lost)")
                if self._peer_closed:
                    raise FrameError("peer closed connection")
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(f"no frame within {timeout}s")
                self._cond.wait(remaining)

    def fileno(self) -> int:
        """A pipe readable while a frame or drop tombstone is queued or
        the peer closed (so :meth:`recv` would not wait); -1 once closed."""
        with self._cond:
            if self._closed:
                return -1
            if self._pipe is None:
                self._pipe = os.pipe()
                self._signal()
            return self._pipe[0]

    def _signal(self) -> None:
        """Keep the pipe's one byte in step with readiness (lock held)."""
        ready = bool(self._queue) or self._lost > 0 or self._peer_closed
        if self._pipe is not None and ready != self._ready:
            if ready:
                os.write(self._pipe[1], b"\0")
            else:
                os.read(self._pipe[0], 1)
            self._ready = ready

    # --------------------------------------------------------------- close
    def close(self) -> None:
        with self._cond:
            if self._pipe is not None:  # also after a kill frame closed us
                os.close(self._pipe[1])  # first: wakes a poll on the read end
                os.close(self._pipe[0])
                self._pipe = None
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        peer = self._peer
        if peer is not None:
            with peer._cond:
                peer._peer_closed = True
                peer._signal()
                peer._cond.notify_all()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class SimListener:
    """The in-process ``Listener`` stand-in: accepts offered endpoints."""

    def __init__(self, network: "SimNetwork", host: str, port: int):
        self.host = host
        self.port = port
        self._network = network
        self._cond = threading.Condition()
        self._pending: deque[SimEndpoint] = deque()
        self._accepted: list[SimEndpoint] = []
        self._closed = False

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def accept(self, timeout: float | None = None) -> SimEndpoint:
        deadline = (None if timeout is None
                    else time.monotonic() + max(0.0, timeout))
        with self._cond:
            while True:
                if self._closed:
                    raise OSError("listener is closed")
                if self._pending:
                    endpoint = self._pending.popleft()
                    self._accepted.append(endpoint)
                    return endpoint
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("accept timed out")
                self._cond.wait(remaining)

    def _offer(self, endpoint: SimEndpoint) -> None:
        with self._cond:
            if self._closed:
                raise ConnectionError("listener is closed")
            self._pending.append(endpoint)
            self._cond.notify_all()

    def kill_connections(self) -> None:
        """Close every connection this listener ever accepted — together
        with :meth:`close`, this simulates the hosting process dying."""
        with self._cond:
            endpoints = list(self._accepted) + list(self._pending)
            self._pending.clear()
        for endpoint in endpoints:
            endpoint.close()

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._network._unbind(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class SimNetwork:
    """A closed world of simulated listeners and connections.

    One network = one virtual clock + one fault schedule + one address
    space.  ``network.transport`` is the :class:`Transport` to inject
    into ``ExpertWorker`` / ``TeamNetMaster``.
    """

    #: first auto-assigned port (mirrors the ephemeral range, cosmetic only)
    _FIRST_PORT = 49152

    def __init__(self, schedule: FaultSchedule | None = None,
                 clock: SimClock | None = None):
        self.clock = clock if clock is not None else SimClock()
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.transport = SimTransport(self)
        self._lock = threading.Lock()
        self._listeners: dict[tuple[str, int], SimListener] = {}
        self._next_port = self._FIRST_PORT
        self._connections = 0

    @property
    def connections_opened(self) -> int:
        with self._lock:
            return self._connections

    def listen(self, host: str = "sim", port: int = 0) -> SimListener:
        with self._lock:
            if port == 0:
                port = self._next_port
                self._next_port += 1
            key = (host, port)
            if key in self._listeners:
                raise OSError(f"address {key} already bound")
            listener = SimListener(self, host, port)
            self._listeners[key] = listener
            return listener

    def _unbind(self, listener: SimListener) -> None:
        with self._lock:
            key = (listener.host, listener.port)
            if self._listeners.get(key) is listener:
                del self._listeners[key]

    def connect(self, host: str, port: int, retries: int = 50,
                delay: float = 0.0, timeout: float = 10.0) -> SimEndpoint:
        """Dial a listener.  ``delay``/``timeout`` are accepted for
        interface parity but nothing sleeps: in-process, a listener is
        either bound or it is not, so retries are immediate."""
        key = (host, port)
        for _ in range(max(1, retries)):
            with self._lock:
                listener = self._listeners.get(key)
                if listener is None:
                    continue
                conn_id = self._connections
                self._connections += 1
            client = SimEndpoint(self.clock)
            server = SimEndpoint(self.clock)
            client._peer = server
            server._peer = client
            client._faults = self.schedule.link(conn_id, REQUEST, key)
            server._faults = self.schedule.link(conn_id, REPLY, key)
            try:
                listener._offer(server)
            except ConnectionError:
                continue
            return client
        raise ConnectionError(f"no listener at {host}:{port}")

    def kill_address(self, address: tuple[str, int]) -> None:
        """Hard-kill whatever is listening at ``address``: close the
        listener and every connection it accepted (process death)."""
        with self._lock:
            listener = self._listeners.get(tuple(address))
        if listener is not None:
            listener.kill_connections()
            listener.close()


class SimTransport(Transport):
    """:class:`Transport` facade over a :class:`SimNetwork`."""

    def __init__(self, network: SimNetwork):
        self.network = network

    def listen(self, host: str = "sim", port: int = 0,
               backlog: int = 16) -> SimListener:
        return self.network.listen(host, port)

    def connect(self, host: str, port: int, retries: int = 50,
                delay: float = 0.05, timeout: float = 10.0) -> SimEndpoint:
        return self.network.connect(host, port, retries=retries,
                                    delay=delay, timeout=timeout)
