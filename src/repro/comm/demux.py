"""Seq-keyed reply demultiplexing over one framed connection.

The original gather spawned one reader thread per peer *per call* and
read replies in lockstep: one request out, block until its reply (or a
stale frame to discard) comes back.  That shape cannot keep multiple
inferences in flight on a connection — the second broadcast has to wait
for the first gather to finish owning the stream.

:class:`ReplyDemux` replaces it.  Every frame read from the endpoint is
routed to the :class:`ReplySlot` registered for its echoed ``seq``;
frames nobody is waiting for are counted stale and dropped.  Callers
register a slot *before* sending (so a reply can never slip past), send
however many requests they like, and later wait on each slot
independently — which is what lets the serving core pipeline
micro-batches on the same socket.

No thread reads on the callers' behalf: the threads waiting for replies
read them, leader/follower style.  A thread in :meth:`ReplySlot.wait`
whose reply has not arrived takes the connection's *reader role* if no
other waiter holds it, reads one frame, routes it by seq, and repeats
until its own slot resolves; each routed frame wakes the other waiters
through the demux's Condition, and the first of them still unresolved
takes the role over.  A waiter that finds the role taken sleeps on the
Condition until the reader routes its reply or lets the role go.  So a
reply wakes the thread that wants it directly — no reader thread, no
relay between threads — and a connection nobody waits on is not read
at all.

A caller gathering from K connections waits on their slots one after
another, yet must read the replies in the order they *arrive*: a reply
is timed when it is read, and a fast peer waited on after a straggler
must neither carry the straggler's wait in its latency (which would
blunt hedging and the failure detector) nor sit out a deadline.  So
demuxes built with one :class:`DemuxGroup` — a master's peer
connections — are read together: a thread about to block on one
member's socket also takes the reader role of every other member that
has replies pending and no reader, polls all those sockets at once, and
reads each frame as it lands.  Only endpoints with a ``fileno`` (real
sockets) can be polled; the simulated fabric's endpoints are read one
slot at a time (their latencies are scripted per frame, so the read
order does not skew them).

Timeout semantics are the subtle part, because the simulated fabric
(:mod:`repro.testkit.sim_transport`) decides delivery-vs-timeout
*virtually*: ``endpoint.recv(timeout)`` compares a message's scripted
transit delay against that call's timeout, and a dropped message's
tombstone resolves a timed wait immediately instead of sleeping it out.
To preserve that, the stream is never free-run: only a waiter whose
slot is pending reads, and it passes the remaining time of the
*nearest* pending slot deadline as the recv timeout.  A ``TimeoutError``
from the endpoint therefore means the nearest deadline is unmeetable —
really elapsed on a socket, virtually decided in the sim — and that slot
fails.  In the sim, delivered frames always satisfied the tightest
pending deadline, so a frame can never resolve a slot whose own
allowance it exceeded.

A slot's deadline can still pass before its waiter reads it: while the
caller was blocked on another connection (outside a group, or on the
sim), or busy between two reads.  Such a slot reads once with zero wait
before it fails.  A frame already present is taken and only an empty
stream times out — on TCP and on zero-delay sim links.  The sim
compares a frame's scripted transit delay with the recv's timeout, so
at zero wait a delayed frame times out even if it was sent in time.
This rule is what keeps a straggler's cost at one deadline for the
whole gather.

A timeout also poisons the connection: a framed-TCP read that gave up
mid-wait may have consumed a partial frame, so nothing after it on the
stream can be trusted (the simulated endpoint is frame-atomic, but the
runtime treats both fabrics the same — a peer that misses a deadline is
failed and redialed).  The demux mirrors that by failing every other
pending slot and refusing new ones once the stream dies, for timeouts,
peer disconnects, and malformed frames alike.
"""

from __future__ import annotations

import select
import threading
import time

from . import protocol

__all__ = ["ChannelDead", "DemuxGroup", "ReplySlot", "ReplyDemux",
           "exchange"]

#: framing overhead per message, mirrored by both transports' meters
FRAME_OVERHEAD_BYTES = 8


class ChannelDead(ConnectionError):
    """The demuxed connection is no longer usable (timeout, disconnect,
    or a malformed frame poisoned the stream)."""


def exchange(endpoint, request: bytes, seq,
             timeout: float | None) -> protocol.Message:
    """One request, one acknowledged reply, on a connection nobody else
    reads — a one-slot demux, for the dial-ask-hang-up exchanges (model
    pushes, roster deltas, observer pings).

    Registers the slot, sends ``request``, and waits for the frame that
    echoes ``seq``.  One deadline covers the whole exchange: draining a
    stale frame consumes part of it instead of resetting it, so a chatty
    peer cannot stall the caller past ``timeout``.  Raises what sending
    raises, ``TimeoutError`` when the reply misses the deadline, and
    :class:`ChannelDead` when the connection drops or the reply is
    malformed; the caller owns the endpoint and closes it.
    """
    slot = ReplyDemux(endpoint).expect(seq, timeout)
    endpoint.send(request)
    return slot.wait()[0]


class ReplySlot:
    """One awaited reply, keyed by the ``seq`` the frame must echo.

    ``wait()`` resolves exactly once, atomically: either a frame echoing
    ``seq`` was routed to it (``(Message, transit latency, frame
    bytes)``) or the slot failed (``TimeoutError`` /
    :class:`ChannelDead`).  A slot that gives up waiting unregisters
    itself, so a reply landing later is counted stale instead of
    resolving a decision already taken — the late-pong race, closed
    structurally.
    """

    __slots__ = ("seq", "timeout", "armed", "deadline", "_demux",
                 "_outcome")

    def __init__(self, demux: "ReplyDemux", seq, timeout: float | None):
        self.seq = seq
        self.timeout = timeout
        self.armed = time.monotonic()
        self.deadline = None if timeout is None else self.armed + timeout
        self._demux = demux
        self._outcome: tuple | Exception | None = None

    def _timed_out(self) -> TimeoutError:
        return TimeoutError(
            f"no reply to seq {self.seq} within {self.timeout}s")

    def wait(self) -> tuple[protocol.Message, float, int]:
        """Block until the reply arrives or the deadline passes, reading
        the connection whenever no other waiter is (and, in a
        :class:`DemuxGroup`, whichever members turn readable first).

        Returns ``(message, latency_s, bytes_received)``; raises what the
        slot failed with.  A waiter that sleeps while another thread
        reads keeps its own deadline as a backstop: it fails with
        ``TimeoutError`` when the deadline passes, without poisoning
        the stream (normally the reader, whose recv timeout covers every
        pending deadline, fails the slot first).
        """
        demux = self._demux
        cond = demux._cond
        while True:
            with cond:
                while self._outcome is None and demux._reading:
                    remaining = (None if self.deadline is None
                                 else self.deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        # Decide once, under the lock: unregister so a
                        # frame routed after this point is stale, not a
                        # phantom success nobody will read.
                        demux._pending.pop(self.seq, None)
                        self._outcome = self._timed_out()
                        break
                    cond.wait(remaining)
                if self._outcome is not None:
                    break
                # Unresolved and nobody reading: this thread reads.  Its
                # own slot is pending, so there is a nearest deadline.
                demux._reading = True
                nearest = demux._nearest()
            if demux._group is None:
                demux._read(nearest, _remaining(nearest))
            else:
                demux._group._read(demux, nearest)
        outcome = self._outcome
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def cancel(self) -> None:
        """Withdraw interest (e.g. the request's send failed)."""
        with self._demux._cond:
            self._demux._pending.pop(self.seq, None)
            if self._outcome is None:
                self._outcome = ChannelDead("slot cancelled")
            self._demux._cond.notify_all()


class ReplyDemux:
    """Routes an endpoint's incoming frames to reply slots by seq.

    The caller keeps the *send* side (sends must be externally
    serialized — framed writes from two threads would interleave bytes);
    the receive side is read by whichever waiter holds the reader role.
    ``expect`` must be called before the matching request is sent.
    Demuxes sharing a ``group`` are read in arrival order (see
    :class:`DemuxGroup`).
    """

    def __init__(self, endpoint, group: "DemuxGroup | None" = None):
        self._endpoint = endpoint
        self._cond = threading.Condition()
        self._pending: dict[object, ReplySlot] = {}
        self._dead: Exception | None = None
        #: a waiter is reading the endpoint (the reader role is held)
        self._reading = False
        #: the sim fabric scripts each frame's transit latency; any other
        #: endpoint's replies are timed here, from when the slot was
        #: armed or the previous frame was read, whichever is later —
        #: what a reader blocked on the connection all along would wait.
        self._scripted_latency = hasattr(endpoint, "last_recv_latency_s")
        self._last_read = 0.0
        #: pollable endpoints join ``group`` (see :class:`DemuxGroup`)
        self._fileno = getattr(endpoint, "fileno", None)
        self._group = group if self._fileno is not None else None
        if self._group is not None:
            self._group._add(self)
        #: frames received that no slot was waiting for (stale replies to
        #: earlier requests), and their metered bytes — drained by the
        #: next gather on this connection so traffic stays attributed.
        self._stale_frames = 0
        self._stale_bytes = 0

    # ------------------------------------------------------------ interface
    def expect(self, seq, timeout: float | None) -> ReplySlot:
        """Register interest in the reply echoing ``seq``.

        ``timeout`` is the slot's allowance from *now* (None = wait
        forever).  Raises :class:`ChannelDead` if the stream already
        died — the caller should fail the peer rather than send into it.
        """
        with self._cond:
            if self._dead is not None:
                raise ChannelDead(str(self._dead))
            if seq in self._pending:
                raise ValueError(f"seq {seq} already awaited")
            slot = ReplySlot(self, seq, timeout)
            self._pending[seq] = slot
            return slot

    @property
    def inflight(self) -> int:
        """Reply slots currently outstanding on this connection — the
        per-peer occupancy signal the overload snapshot surfaces (a
        connection with many pending slots is a gather pipeline running
        deep, not a protocol error)."""
        with self._cond:
            return len(self._pending)

    def take_stale(self) -> tuple[int, int]:
        """Drain and return ``(stale frame count, stale bytes)``."""
        with self._cond:
            taken = (self._stale_frames, self._stale_bytes)
            self._stale_frames = 0
            self._stale_bytes = 0
            return taken

    @property
    def dead(self) -> bool:
        with self._cond:
            return self._dead is not None

    def close(self) -> None:
        """Fail any pending slots and refuse new ones.

        Does not close the endpoint — the connection's owner does that
        (closing the endpoint also releases a waiter blocked reading
        it)."""
        with self._cond:
            self._die(ChannelDead("demux closed"))
            self._cond.notify_all()

    # --------------------------------------------------------------- reader
    def _claim(self) -> ReplySlot | None:
        """Take the reader role for a group read: only a live, pollable
        connection with replies pending and nobody reading it.  Returns
        its nearest pending slot, or None when it is not to be read."""
        if self._fileno is None:
            return None
        with self._cond:
            if self._reading or self._dead is not None or not self._pending:
                return None
            self._reading = True
            return self._nearest()

    def _release(self) -> None:
        """Let the reader role go without reading."""
        with self._cond:
            self._reading = False
            self._cond.notify_all()

    def _nearest(self) -> ReplySlot | None:
        """The pending slot with the tightest deadline (None-deadline
        slots only win when nothing bounded is waiting)."""
        nearest = None
        for slot in self._pending.values():
            if slot.deadline is None:
                if nearest is None:
                    nearest = slot
            elif nearest is None or nearest.deadline is None \
                    or slot.deadline < nearest.deadline:
                nearest = slot
        return nearest

    def _die(self, error: Exception) -> None:
        """Poison the stream: fail every pending slot with ``error`` and
        refuse new ones.  Caller holds the lock and notifies."""
        if self._dead is not None:
            return
        self._dead = error
        for slot in self._pending.values():
            if slot._outcome is None:
                slot._outcome = error
        self._pending.clear()
        if self._group is not None:
            self._group._discard(self)

    def _read(self, nearest: ReplySlot, timeout: float | None) -> None:
        """Read one frame, route it, and let the reader role go.

        Called without the lock by the waiter that took the role;
        ``nearest`` is the pending slot whose deadline ``timeout`` was
        taken from (zero once that deadline has passed).
        """
        message = error = None
        try:
            try:
                payload = self._endpoint.recv(timeout=timeout)
            except TimeoutError:
                # The tightest deadline is unmeetable: elapsed for real,
                # decided virtually by the sim fabric, or nothing queued
                # for a zero-wait read.
                error = nearest._timed_out()
            except (ConnectionError, OSError) as exc:
                error = ChannelDead(f"connection lost: {exc}")
            else:
                read_at = time.monotonic()
                latency = (self._endpoint.last_recv_latency_s
                           if self._scripted_latency else None)
                nbytes = FRAME_OVERHEAD_BYTES + len(payload)
                try:
                    message = protocol.decode(payload)
                except protocol.ProtocolError as exc:
                    # A malformed frame from this peer means nothing
                    # further on the stream can be trusted.
                    error = ChannelDead(f"malformed frame: {exc}")
        finally:
            with self._cond:
                self._reading = False
                if message is not None:
                    slot = self._pending.pop(message.meta.get("seq"), None)
                    if slot is None:
                        self._stale_frames += 1
                        self._stale_bytes += nbytes
                    elif slot._outcome is None:
                        if latency is None:
                            latency = read_at - max(slot.armed,
                                                    self._last_read)
                        slot._outcome = (message, float(latency), nbytes)
                    self._last_read = read_at
                elif isinstance(error, TimeoutError):
                    # The stream itself is now suspect — a framed read
                    # that timed out may have consumed a partial frame —
                    # so everything else pending dies with the slot.
                    if self._pending.get(nearest.seq) is nearest:
                        del self._pending[nearest.seq]
                    if nearest._outcome is None:
                        nearest._outcome = error
                    self._die(ChannelDead(
                        "connection abandoned after a reply timeout"))
                elif error is not None:
                    self._die(error)
                self._cond.notify_all()


class DemuxGroup:
    """The connections one caller gathers from, read in arrival order.

    A waiter about to read one member's socket first takes the reader
    role of every other member with replies pending and nobody reading
    it, then polls all their sockets together and reads each one that
    turns readable — one frame each — before letting the roles go.  A
    gather that waits on its peers one after another thus still reads,
    and times, every reply when it lands.  When no other member needs
    reading the waiter reads its own socket directly, as an ungrouped
    demux would.  Members join at construction (pollable endpoints
    only) and leave when their stream dies or closes.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._members: dict[ReplyDemux, None] = {}

    def _add(self, demux: ReplyDemux) -> None:
        with self._lock:
            self._members[demux] = None

    def _discard(self, demux: ReplyDemux) -> None:
        with self._lock:
            self._members.pop(demux, None)

    def _read(self, leader: ReplyDemux, nearest: ReplySlot) -> None:
        """Called without locks by a waiter holding ``leader``'s reader
        role; ``nearest`` is that connection's tightest pending slot."""
        with self._lock:
            others = [demux for demux in self._members if demux is not leader]
        held = [(leader, nearest)]
        try:
            for demux in others:
                slot = demux._claim()
                if slot is not None:
                    held.append((demux, slot))
            if len(held) == 1:
                held.clear()
                leader._read(nearest, _remaining(nearest))
                return
            ready = _poll(held)
        except BaseException:
            for demux, _ in held:
                demux._release()
            raise
        for entry in held:
            if entry not in ready:
                entry[0]._release()
        for demux, slot in ready:
            demux._read(slot, _remaining(slot))


def _remaining(slot: ReplySlot) -> float | None:
    """Seconds left before ``slot``'s deadline, zero once it passed."""
    if slot.deadline is None:
        return None
    return max(0.0, slot.deadline - time.monotonic())


def _poll(held: list[tuple[ReplyDemux, ReplySlot]]
          ) -> list[tuple[ReplyDemux, ReplySlot]]:
    """The ``(demux, nearest slot)`` entries to read one frame from: those
    whose sockets are readable (or closed — the read then fails them)
    within the tightest of their deadlines, else the entry owning that
    deadline, whose zero-wait read will time it out."""
    poller = select.poll()
    by_fd = {}
    ready = []
    for entry in held:
        fd = entry[0]._fileno()
        if fd < 0:
            ready.append(entry)
        else:
            by_fd[fd] = entry
            poller.register(fd, select.POLLIN)
    bounded = [entry for entry in held if entry[1].deadline is not None]
    nearest = min(bounded, key=lambda entry: entry[1].deadline,
                  default=None)
    if ready:
        timeout_ms = 0.0
    elif nearest is None:
        timeout_ms = None
    else:
        timeout_ms = 1000.0 * _remaining(nearest[1])
    ready.extend(by_fd[fd] for fd, _ in poller.poll(timeout_ms))
    return ready or [nearest]
