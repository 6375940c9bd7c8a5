"""ReplyDemux: seq-keyed reply routing over one framed connection.

A listener/client endpoint pair stands in for a worker connection, with
the test playing the worker side by pushing frames directly.  The
routing, channel-death and caller-reading suites run twice: on the
simulated fabric (no real sockets; a :class:`SimNetwork` pair) and, in
their ``...OverTcp`` subclasses, on a real TCP loopback pair.
"""

import random
import sys
import threading
import time

import pytest

from repro.comm import protocol
from repro.comm.demux import ChannelDead, DemuxGroup, ReplyDemux
from repro.comm.transport import Listener, connect
from repro.testkit import FaultSchedule, LinkFaults, SimNetwork, forbid_sockets


def make_pair(network):
    listener = network.listen("sim", 0)
    client = network.connect("sim", listener.port)
    server = listener.accept(timeout=1.0)
    return client, server


def result_frame(seq, **meta):
    return protocol.encode(protocol.RESULT, {"seq": seq, **meta})


@pytest.fixture
def fabric():
    """A factory of connected ``(client, server)`` endpoint pairs on the
    simulated fabric; every pair it made is closed afterwards."""
    opened = []

    def open_pair():
        opened.extend(make_pair(network))
        return opened[-2], opened[-1]

    with forbid_sockets():
        network = SimNetwork()
        yield open_pair
        for endpoint in opened:
            endpoint.close()


@pytest.fixture
def pair(fabric):
    client, server = fabric()
    demux = ReplyDemux(client)
    yield demux, server
    demux.close()


class TestRouting:
    scripted_latency = True

    def test_routes_reply_by_seq(self, pair):
        demux, server = pair
        slot = demux.expect(7, timeout=1.0)
        server.send(result_frame(7))
        message, latency, nbytes = slot.wait()
        assert message.kind == protocol.RESULT
        assert message.meta["seq"] == 7
        # A benign sim link scripts no delay; TCP times the wait itself.
        assert latency == 0.0 if self.scripted_latency else latency >= 0.0
        assert nbytes == 8 + len(result_frame(7))

    def test_out_of_order_replies_reach_their_own_slots(self, pair):
        demux, server = pair
        first = demux.expect(1, timeout=1.0)
        second = demux.expect(2, timeout=1.0)
        # The wire carries 2's answer first; each waiter still gets its own.
        server.send(result_frame(2, tag="b"))
        server.send(result_frame(1, tag="a"))
        assert second.wait()[0].meta["tag"] == "b"
        assert first.wait()[0].meta["tag"] == "a"

    def test_unclaimed_frames_count_stale(self, pair):
        demux, server = pair
        slot = demux.expect(5, timeout=1.0)
        stale = result_frame(999)  # reply to a request nobody awaits
        server.send(stale)
        server.send(result_frame(5))
        slot.wait()
        frames, nbytes = demux.take_stale()
        assert frames == 1
        assert nbytes == 8 + len(stale)
        assert demux.take_stale() == (0, 0)  # drained exactly once

    def test_duplicate_seq_registration_rejected(self, pair):
        demux, _ = pair
        demux.expect(3, timeout=1.0)
        with pytest.raises(ValueError, match="already awaited"):
            demux.expect(3, timeout=1.0)

    def test_cancelled_slot_turns_its_reply_stale(self, pair):
        demux, server = pair
        slot = demux.expect(4, timeout=1.0)
        keep = demux.expect(6, timeout=1.0)  # its waiter reads both frames
        slot.cancel()
        with pytest.raises(ChannelDead):
            slot.wait()
        server.send(result_frame(4))
        server.send(result_frame(6))
        keep.wait()
        assert demux.take_stale()[0] == 1


class TestChannelDeath:
    def test_timeout_fails_the_slot_and_kills_the_channel(self, pair):
        demux, _ = pair
        slot = demux.expect(1, timeout=0.05)
        with pytest.raises(TimeoutError):
            slot.wait()
        # The read that timed out may have left a partial frame behind:
        # the connection is refused from here on.
        assert demux.dead
        with pytest.raises(ChannelDead):
            demux.expect(2, timeout=0.05)

    def test_timeout_fails_every_other_pending_slot(self, pair):
        demux, _ = pair
        nearest = demux.expect(1, timeout=0.05)
        other = demux.expect(2, timeout=5.0)
        with pytest.raises(TimeoutError):
            nearest.wait()
        # The stream may hold a partial frame after an abandoned read:
        # nothing behind it can be trusted.
        with pytest.raises(ChannelDead):
            other.wait()

    def test_malformed_frame_kills_the_channel(self, pair):
        demux, server = pair
        slot = demux.expect(1, timeout=1.0)
        server.send(b"not a protocol frame")
        with pytest.raises(ChannelDead, match="malformed"):
            slot.wait()
        assert demux.dead

    def test_peer_close_fails_pending_slots(self, pair):
        demux, server = pair
        slot = demux.expect(1, timeout=1.0)
        server.close()
        with pytest.raises(ChannelDead):
            slot.wait()

    def test_close_fails_pending_and_stops_the_reader(self, fabric):
        client, _server = fabric()
        threads = threading.active_count()
        demux = ReplyDemux(client)
        assert threading.active_count() == threads  # no reader thread
        idle = demux.expect(1, timeout=30.0)
        demux.close()
        with pytest.raises(ChannelDead):
            idle.wait()
        # A waiter blocked reading the endpoint is the reader: close()
        # fails its slot, and closing the endpoint releases its recv.
        demux = ReplyDemux(client)
        reading = demux.expect(2, timeout=30.0)
        waiter = Waiter(reading)
        wait_until(lambda: demux._reading)
        demux.close()
        client.close()
        assert isinstance(waiter.outcome(), ChannelDead)
        with pytest.raises(ChannelDead):
            demux.expect(3, timeout=1.0)


def wait_until(predicate, bound=5.0):
    """Poll ``predicate`` until it holds; fail the test after ``bound``."""
    deadline = time.monotonic() + bound
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class Waiter:
    """``slot.wait()`` on a thread of its own; ``outcome()`` joins it and
    returns what the wait returned or raised."""

    def __init__(self, slot):
        self._outcome = None
        self._thread = threading.Thread(target=self._run, args=(slot,))
        self._thread.start()

    def _run(self, slot):
        try:
            self._outcome = slot.wait()
        except Exception as exc:  # noqa: BLE001 - handed to the test
            self._outcome = exc

    def outcome(self, timeout=5.0):
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "waiter still blocked"
        return self._outcome


class TestCallerReads:
    """The waiters read their own replies: one holds the reader role at a
    time and hands it over when its reply is in."""

    scripted_latency = True

    def test_two_waiters_hand_the_reader_role_over(self, pair):
        demux, server = pair
        first = Waiter(demux.expect(1, timeout=2.0))
        second = Waiter(demux.expect(2, timeout=2.0))
        # Both blocked: one reading, one asleep on the Condition.
        wait_until(lambda: demux._reading and len(demux._cond._waiters) == 1)
        # Reversed replies: whichever waiter reads first may get the
        # other's frame, and then must keep reading or pass the role on.
        server.send(result_frame(2, tag="b"))
        server.send(result_frame(1, tag="a"))
        assert first.outcome()[0].meta["tag"] == "a"
        assert second.outcome()[0].meta["tag"] == "b"
        assert demux.take_stale() == (0, 0)
        assert not demux.dead

    def test_many_waiters_each_get_their_own_reply(self, pair):
        """More waiters than cores on one connection, replies in shuffled
        order and frequent thread switches: every waiter gets exactly its
        own reply, and the role always reaches whoever still waits."""
        demux, server = pair
        seqs = list(range(8))
        order = random.Random(0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                waiters = {seq: Waiter(demux.expect(seq, timeout=5.0))
                           for seq in seqs}
                order.shuffle(seqs)
                for seq in seqs:
                    server.send(result_frame(seq, tag=f"r{seq}"))
                for seq, waiter in waiters.items():
                    assert waiter.outcome()[0].meta["tag"] == f"r{seq}"
        finally:
            sys.setswitchinterval(switch)
        assert demux.take_stale() == (0, 0)
        assert demux.inflight == 0 and not demux.dead

    def test_reply_queued_before_deadline_is_read_after_it(self, fabric):
        """A gather waits on its connections one after another, so a
        fast peer's deadline can pass while the caller is blocked behind
        a slow one.  The fast peer's reply, queued in time, is taken."""
        slow_client, slow_server = fabric()
        fast_client, fast_server = fabric()
        slow, fast = ReplyDemux(slow_client), ReplyDemux(fast_client)
        slow_slot = slow.expect(1, timeout=2.0)
        fast_slot = fast.expect(1, timeout=0.1)
        fast_server.send(result_frame(1, tag="fast"))
        timer = threading.Timer(0.3, slow_server.send,
                                args=(result_frame(1, tag="slow"),))
        timer.start()
        try:
            assert slow_slot.wait()[0].meta["tag"] == "slow"
            assert time.monotonic() > fast_slot.deadline
            assert fast_slot.wait()[0].meta["tag"] == "fast"
        finally:
            timer.join()
        assert not fast.dead

    def test_reply_read_late_is_timed_from_when_it_was_awaited(self,
                                                               fabric):
        """Replies that queued while the caller read another connection
        keep their wait: a socket's own recv would report almost none,
        and a healthy peer read first would look like the only slow
        one (and be hedged)."""
        pairs = [fabric() for _ in range(2)]
        slots = [ReplyDemux(client).expect(1, timeout=2.0)
                 for client, _ in pairs]
        timers = [threading.Timer(0.1, server.send, args=(result_frame(1),))
                  for _, server in pairs]
        for timer in timers:
            timer.start()
        try:
            latencies = [slot.wait()[1] for slot in slots]
        finally:
            for timer in timers:
                timer.join()
        if self.scripted_latency:
            assert latencies == [0.0, 0.0]
        else:
            assert min(latencies) >= 0.09

    def test_expired_slot_with_nothing_queued_times_out(self, pair):
        demux, _ = pair
        slot = demux.expect(1, timeout=0.05)
        time.sleep(0.1)  # the deadline passes before anyone waits
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            slot.wait()
        assert time.monotonic() - start < 0.5  # a zero-wait read
        assert demux.dead


class OverTcp:
    """Mixin: run a suite on real TCP loopback pairs."""

    scripted_latency = False

    @pytest.fixture
    def fabric(self):
        opened = []

        def open_pair():
            with Listener() as listener:
                client = connect(*listener.address)
                server = listener.accept(timeout=1.0)
            opened.extend((client, server))
            return client, server

        yield open_pair
        for endpoint in opened:
            endpoint.close()


class TestRoutingOverTcp(OverTcp, TestRouting):
    pass


class TestChannelDeathOverTcp(OverTcp, TestChannelDeath):
    pass


class TestCallerReadsOverTcp(OverTcp, TestCallerReads):
    pass


class TestGroupReadsOverTcp(OverTcp):
    """Demuxes sharing a :class:`DemuxGroup` are read in arrival order,
    whichever member's slot the caller happens to wait on."""

    @pytest.fixture
    def grouped(self, fabric):
        group = DemuxGroup()

        def open_members(count):
            pairs = [fabric() for _ in range(count)]
            return [(ReplyDemux(client, group), server)
                    for client, server in pairs]

        yield open_members

    @staticmethod
    def replies_at(*schedule):
        """``(delay_s, server, frame)`` sends on timers; returns them."""
        timers = [threading.Timer(delay, server.send, args=(frame,))
                  for delay, server, frame in schedule]
        for timer in timers:
            timer.start()
        return timers

    def test_reply_is_timed_when_it_lands_not_when_reached(self, grouped):
        """The caller waits on the slow member first; the fast member's
        reply is read while it waits, so its latency is its own."""
        (slow, slow_server), (fast, fast_server) = grouped(2)
        slow_slot = slow.expect(1, timeout=2.0)
        fast_slot = fast.expect(1, timeout=2.0)
        timers = self.replies_at((0.3, slow_server, result_frame(1)),
                                 (0.02, fast_server, result_frame(1)))
        try:
            slow_latency = slow_slot.wait()[1]
            fast_latency = fast_slot.wait()[1]
        finally:
            for timer in timers:
                timer.join()
        assert slow_latency >= 0.29
        assert fast_latency < 0.15

    def test_member_slot_fails_at_its_own_deadline(self, grouped):
        """While the caller waits on another member, a member's slot
        still fails when its deadline passes — a hedged peer is cut off
        on time — and its reply landing later is not taken."""
        (slow, slow_server), (hedged, hedged_server) = grouped(2)
        slow_slot = slow.expect(1, timeout=2.0)
        hedged_slot = hedged.expect(1, timeout=0.05)
        timers = self.replies_at((0.3, slow_server, result_frame(1)),
                                 (0.15, hedged_server, result_frame(1)))
        try:
            slow_slot.wait()
            with pytest.raises(TimeoutError):
                hedged_slot.wait()
        finally:
            for timer in timers:
                timer.join()
        assert hedged.dead and not slow.dead

    def test_waiters_on_different_members_each_get_their_reply(self,
                                                               grouped):
        """One waiter per member, replies landing in reverse order: the
        reader roles pass between the waiters and every reply reaches
        its own slot."""
        members = grouped(3)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(20):
                waiters = [Waiter(demux.expect(round_, timeout=5.0))
                           for demux, _ in members]
                for index, (_, server) in reversed(list(enumerate(members))):
                    server.send(result_frame(round_, tag=f"m{index}"))
                for index, waiter in enumerate(waiters):
                    assert waiter.outcome()[0].meta["tag"] == f"m{index}"
        finally:
            sys.setswitchinterval(switch)
        for demux, _ in members:
            assert demux.take_stale() == (0, 0) and not demux.dead

    def test_members_leave_when_their_stream_dies(self, grouped, fabric):
        members = [demux for demux, _ in grouped(2)]
        group = members[0]._group
        assert list(group._members) == members
        members[0].close()
        assert list(group._members) == members[1:]
        with forbid_sockets():
            sim_client, _ = make_pair(SimNetwork())
            ReplyDemux(sim_client, group)  # no fileno: read on its own
        assert list(group._members) == members[1:]


class TestVirtualTime:
    def test_dropped_reply_times_out_without_sleeping(self):
        with forbid_sockets():
            # Every reply is dropped: tombstones land on both ends, and
            # the demux reader must consume one virtually instead of
            # sleeping out the 10-second deadline.
            network = SimNetwork(FaultSchedule(reply=LinkFaults(drop=1.0)))
            client, server = make_pair(network)
            demux = ReplyDemux(client)
            slot = demux.expect(1, timeout=10.0)
            start = time.monotonic()
            server.send(result_frame(1))  # dropped by the fault above
            with pytest.raises(TimeoutError):
                slot.wait()
            assert time.monotonic() - start < 1.0  # virtual, not the 10s
            demux.close()
            client.close()

    def test_delayed_reply_reached_after_its_deadline_times_out(self):
        """An expired slot reads once with zero wait, and the sim fabric
        compares a frame's scripted delay with the recv's timeout: a
        delayed reply sent in time, but reached only after its deadline
        (the caller was blocked on another connection), times out."""
        with forbid_sockets():
            network = SimNetwork(FaultSchedule(
                reply=LinkFaults(latency=(0.01, 0.01))))
            slow_client, slow_server = make_pair(network)
            late_client, late_server = make_pair(network)
            slow, late = ReplyDemux(slow_client), ReplyDemux(late_client)
            slow_slot = slow.expect(1, timeout=2.0)
            late_slot = late.expect(1, timeout=0.1)
            late_server.send(result_frame(1))
            timer = threading.Timer(0.3, slow_server.send,
                                    args=(result_frame(1),))
            timer.start()
            try:
                assert slow_slot.wait()[1] == 0.01  # the scripted delay
                with pytest.raises(TimeoutError):
                    late_slot.wait()
            finally:
                timer.join()
            for endpoint in (slow_client, slow_server, late_client,
                             late_server):
                endpoint.close()

    def test_idle_reader_does_not_consume_frames(self, pair):
        demux, server = pair
        # No slot registered: the reader must idle, leaving the frame
        # queued for whoever registers next (never free-run the stream).
        server.send(result_frame(8))
        time.sleep(0.05)
        assert demux.take_stale() == (0, 0)
        slot = demux.expect(8, timeout=1.0)
        assert slot.wait()[0].meta["seq"] == 8


class TestLatePongPattern:
    def test_reply_after_backstop_expiry_counts_stale(self):
        """The structural fix for the heartbeat late-pong race: once a
        waiter's deadline books a timeout, the late reply can only land
        as stale — never as a success."""

        class StubbornEndpoint:
            """Ignores recv deadlines: blocks until released, then hands
            out its frames in order."""

            def __init__(self, frames):
                self.last_recv_latency_s = 0.0
                self._frames = list(frames)
                self._released = threading.Event()

            def recv(self, timeout=None):
                if not self._released.wait(timeout=5.0):
                    raise TimeoutError("never released")
                return self._frames.pop(0)

            def release(self):
                self._released.set()

        endpoint = StubbornEndpoint([result_frame(1), result_frame(2)])
        demux = ReplyDemux(endpoint)
        pong = demux.expect(1, timeout=0.05)
        reader = Waiter(demux.expect(2, timeout=5.0))
        wait_until(lambda: demux._reading)  # the other waiter is stuck
        with pytest.raises(TimeoutError):
            pong.wait()  # the backstop fires; the reader is still stuck
        endpoint.release()  # now the "pong" arrives, then the reply
        assert reader.outcome()[0].meta["seq"] == 2
        assert demux.take_stale()[0] == 1
        assert isinstance(pong._outcome, TimeoutError)
