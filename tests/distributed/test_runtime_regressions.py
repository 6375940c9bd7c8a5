"""Regressions for the serving-path leaks and races.

Two of the four fixed bugs live here (the redeploy pair is in
``test_redeploy.py``, the loadsim one in ``tests/edge/test_loadsim.py``):

* **Late-pong race** — the old per-call probe threads could book a pong
  that arrived *after* the timeout path had already closed the peer's
  socket, leaving a "healthy" peer holding a dead connection.
* **Serve-thread leak** — ``ExpertWorker.stop()`` closed only the
  listener; serve threads blocked in a timeout-less ``recv`` on a live
  client connection hung forever, one more per stop/start cycle.
"""

import threading
import time

from repro.comm import protocol
from repro.comm.transport import TransportStats
from repro.distributed.teamnet_runtime import ExpertWorker, TeamNetMaster
from repro.testkit import SimNetwork, forbid_sockets, strategies


class LatePongEndpoint:
    """A connection that honors no recv deadline and produces its pong
    only once closed — the exact interleaving of the old race, where the
    reply raced the timeout path's socket close and could win."""

    def __init__(self):
        self.stats = TransportStats()
        self.last_recv_latency_s = 0.0
        self._released = threading.Event()
        self._seq = None

    def send(self, payload):
        self._seq = protocol.decode(payload).meta.get("seq")

    def recv(self, timeout=None):
        if not self._released.wait(timeout=5.0):
            raise TimeoutError("pong never released")
        return protocol.encode(protocol.PONG, {"seq": self._seq})

    def close(self):
        self._released.set()


class OneEndpointTransport:
    """A transport whose every connect yields the same fake endpoint."""

    def __init__(self, endpoint):
        self.endpoint = endpoint

    def connect(self, host, port, **kwargs):
        return self.endpoint


class TestHeartbeatLatePong:
    def test_late_pong_cannot_resurrect_a_timed_out_peer(self):
        experts, _ = strategies.expert_team(strategies.rng_from(42, 1))
        endpoint = LatePongEndpoint()
        master = TeamNetMaster(experts[0], [("fake", 1)],
                               transport=OneEndpointTransport(endpoint))
        rtts = master.heartbeat(timeout=0.1)
        # The probe must be booked as a miss even though the pong landed
        # (stale, after the deadline decision) — never as a success
        # against an already-closed socket.
        assert rtts[1] is None
        peer = master._peers[0]
        assert peer.sock is None
        assert peer.channel is None
        health = master.worker_health[1]
        assert health.timeouts == 1
        assert health.failures == 1
        snapshot = master.resilience_snapshot()[1]
        # record_success() would have zeroed this; the late pong must not
        # have reached it.
        assert snapshot.consecutive_failures >= 1
        assert snapshot.suspicion_score > 0.0
        master.close()


class TestWorkerStopReleasesConnections:
    def test_stop_start_cycles_leak_no_serve_threads(self):
        experts, x = strategies.expert_team(strategies.rng_from(7, 0))
        with forbid_sockets():
            network = SimNetwork()
            worker = ExpertWorker(experts[1], host="sim",
                                  transport=network.transport)
            baseline = threading.active_count()
            clients = []
            try:
                for cycle in range(10):
                    worker.start()
                    # A client that connects, runs one inference, and
                    # then just stays connected — stop() must not wait
                    # on it to hang up.
                    sock = network.transport.connect(*worker.address)
                    clients.append(sock)
                    sock.send(protocol.encode(
                        protocol.INFER, {"seq": cycle}, {"x": x}))
                    reply = protocol.decode(sock.recv(timeout=2.0))
                    assert reply.kind == protocol.RESULT
                    worker.stop()
                    assert worker._server._threads == []
            finally:
                for sock in clients:
                    sock.close()
            # Old stop() closed only the listener: each cycle stranded
            # one serve thread in a deadline-less recv, +10 by now.
            deadline = time.monotonic() + 2.0
            while (threading.active_count() > baseline
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert threading.active_count() <= baseline


class TestWorkerFence:
    """The worker's one epoch fence covers every kind a master sends —
    DEPLOY included, which used to swap the expert for anyone."""

    def test_every_epoch_carrying_kind_is_fenced_and_serving_continues(self):
        experts, x = strategies.expert_team(strategies.rng_from(7, 1))
        with forbid_sockets():
            network = SimNetwork()
            worker = ExpertWorker(experts[1], host="sim",
                                  transport=network.transport)
            worker.start()
            sock = network.transport.connect(*worker.address)

            def ask(kind, meta, arrays=None):
                sock.send(protocol.encode(kind, meta, arrays))
                return protocol.decode(sock.recv(timeout=2.0))

            try:
                # An observer ping (no epoch) reads the lease, renews
                # nothing.
                assert ask(protocol.PING, {"seq": 1}).kind == protocol.PONG
                assert worker.leader_view() == (None, 0, None)
                attached = ask(protocol.ATTACH,
                               {"seq": 2, "epoch": 3, "leader": "new"})
                assert attached.kind == protocol.ATTACHED
                installed = worker.fingerprint
                stale = {"epoch": 2, "leader": "old"}
                for seq, (kind, arrays) in enumerate((
                        (protocol.PING, None), (protocol.ATTACH, None),
                        (protocol.INFER, {"x": x}),
                        (protocol.CANARY, {"x": x}),
                        (protocol.DEPLOY, {"model": x})), start=10):
                    refused = ask(kind, {"seq": seq, **stale}, arrays)
                    assert refused.kind == protocol.ERROR
                    assert refused.meta["stale_epoch"] is True
                    assert refused.meta["epoch"] == 3
                    assert refused.meta["seq"] == seq
                assert worker.leader_view()[:2] == ("new", 3)
                assert worker.fingerprint == installed
                # A bad input costs an error reply, not the connection.
                broken = ask(protocol.INFER, {"seq": 20, "epoch": 3})
                assert broken.kind == protocol.ERROR
                assert broken.meta["error"].startswith("inference: ")
                assert broken.meta["seq"] == 20
                good = ask(protocol.INFER, {"seq": 21, "epoch": 3}, {"x": x})
                assert good.kind == protocol.RESULT
                assert good.meta["model_version"] == installed
            finally:
                sock.close()
                worker.stop()
