"""ReplyDemux: seq-keyed reply routing over one framed connection.

These run on the simulated fabric (no real sockets): a listener/client
endpoint pair from a :class:`SimNetwork` stands in for a worker
connection, with the test playing the worker side by pushing frames
directly.
"""

import threading
import time

import pytest

from repro.comm import protocol
from repro.comm.demux import ChannelDead, ReplyDemux
from repro.testkit import FaultSchedule, LinkFaults, SimNetwork, forbid_sockets


def make_pair(network):
    listener = network.listen("sim", 0)
    client = network.connect("sim", listener.port)
    server = listener.accept(timeout=1.0)
    return client, server


def result_frame(seq, **meta):
    return protocol.encode(protocol.RESULT, {"seq": seq, **meta})


@pytest.fixture
def pair():
    with forbid_sockets():
        network = SimNetwork()
        client, server = make_pair(network)
        demux = ReplyDemux(client)
        yield demux, server
        demux.close()
        client.close()
        server.close()


class TestRouting:
    def test_routes_reply_by_seq(self, pair):
        demux, server = pair
        slot = demux.expect(7, timeout=1.0)
        server.send(result_frame(7))
        message, latency, nbytes = slot.wait()
        assert message.kind == protocol.RESULT
        assert message.meta["seq"] == 7
        assert latency == 0.0  # scripted delay on a benign link
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
        keep = demux.expect(6, timeout=1.0)  # keeps the reader reading
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
        # wait()'s own backstop can fire before the reader thread acts on
        # the same deadline; the channel dies on the reader's side.
        demux._reader.join(timeout=2.0)
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

    def test_close_fails_pending_and_stops_the_reader(self):
        with forbid_sockets():
            network = SimNetwork()
            client, _server = make_pair(network)
            demux = ReplyDemux(client)
            slot = demux.expect(1, timeout=30.0)
            demux.close()
            with pytest.raises(ChannelDead):
                slot.wait()
            # Closing the endpoint releases a reader mid-recv.
            client.close()
            demux._reader.join(timeout=1.0)
            assert not demux._reader.is_alive()


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
            """Ignores recv deadlines; replies only once closed."""

            def __init__(self):
                self.last_recv_latency_s = 0.0
                self._released = threading.Event()

            def recv(self, timeout=None):
                if not self._released.wait(timeout=5.0):
                    raise TimeoutError("never released")
                return result_frame(1)

            def close(self):
                self._released.set()

        endpoint = StubbornEndpoint()
        demux = ReplyDemux(endpoint)
        slot = demux.expect(1, timeout=0.05)
        with pytest.raises(TimeoutError):
            slot.wait()  # the backstop fires; the reader is still stuck
        endpoint.close()  # now the "pong" arrives
        time.sleep(0.1)
        frames, _ = demux.take_stale()
        # Either the reader booked it stale, or its own timeout killed
        # the channel first — both are safe; success is impossible.
        assert frames in (0, 1)
        assert slot._outcome is not None
        assert isinstance(slot._outcome, Exception)
