"""Fault-injection tests for the concurrent gather and worker recovery.

These exercise the failure paths the paper's latency argument depends on:
a straggler must cost the master at most one ``reply_timeout`` (not K×),
the survivors' answer must stay byte-identical to the single-process
reference, traffic to a failed worker must still be metered, and a worker
that comes back after a restart must rejoin the team automatically.
"""

import threading
import time

import numpy as np
import pytest

from repro.comm import protocol
from repro.comm.transport import connect
from repro.core import TeamInference
from repro.distributed import (DegradationPolicy, ExpertWorker,
                               ResilienceConfig, deploy_local_team)
from repro.nn import MLP, Module

#: answer from whichever experts reply in time
DEGRADE = DegradationPolicy(min_quorum=1)


class SlowExpert(Module):
    """Wraps an expert and delays its forward to simulate a straggler."""

    def __init__(self, inner: Module, delay_s: float):
        super().__init__()
        self.inner = inner
        self.delay_s = delay_s

    def forward(self, x):
        time.sleep(self.delay_s)
        return self.inner(x)


def make_experts(k: int) -> list[MLP]:
    return [MLP(10, 3, depth=1, width=6, rng=np.random.default_rng(i))
            for i in range(k)]


def shutdown_team(master, workers) -> None:
    master.close()
    for worker in workers:
        worker.stop()


class TestConcurrentGather:
    def test_straggler_costs_one_deadline_not_k_times(self, rng):
        """K=4 with one worker sleeping past the deadline: the gather must
        finish in ~1× reply_timeout and answer from the 3 live experts."""
        timeout = 0.6
        experts = make_experts(4)
        team = [experts[0], experts[1],
                SlowExpert(experts[2], delay_s=3 * timeout), experts[3]]
        master, workers = deploy_local_team(team, degradation=DEGRADE,
                                            reply_timeout=timeout)
        try:
            x = rng.standard_normal((4, 10)).astype(np.float32)
            start = time.monotonic()
            preds, winner, stats = master.infer(x)
            elapsed = time.monotonic() - start
            assert elapsed < 2 * timeout, (
                f"gather took {elapsed:.2f}s — serialized per-peer timeouts?")
            assert master.failed_workers == [2]
            surviving = TeamInference([experts[0], experts[1], experts[3]])
            np.testing.assert_array_equal(preds, surviving.predict(x))
            assert set(np.unique(winner)) <= {0, 1, 3}
            assert stats.failures == 1
            assert set(stats.reply_latency_s) == {1, 3}
        finally:
            shutdown_team(master, workers)

    def test_every_worker_straggling_still_one_deadline(self, rng):
        """Even with ALL workers past the deadline the total gather time is
        bounded by one deadline — the worst case for a serial gather."""
        timeout = 0.5
        experts = make_experts(4)
        team = [experts[0]] + [SlowExpert(e, delay_s=2 * timeout)
                               for e in experts[1:]]
        master, workers = deploy_local_team(team, degradation=DEGRADE,
                                            reply_timeout=timeout)
        try:
            x = rng.standard_normal((2, 10)).astype(np.float32)
            start = time.monotonic()
            preds, _, stats = master.infer(x)
            elapsed = time.monotonic() - start
            assert elapsed < 2 * timeout
            assert stats.failures == 3
            assert sorted(master.failed_workers) == [1, 2, 3]
            # Only the local expert answered.
            np.testing.assert_array_equal(
                preds, TeamInference([experts[0]]).predict(x))
        finally:
            shutdown_team(master, workers)

    def test_broadcast_traffic_counted_for_failed_worker(self, rng):
        """Bytes sent to a worker that later misses the deadline must not
        vanish from the inference stats."""
        timeout = 0.4
        experts = make_experts(3)
        team = [experts[0], experts[1],
                SlowExpert(experts[2], delay_s=3 * timeout)]
        master, workers = deploy_local_team(team, degradation=DEGRADE,
                                            reply_timeout=timeout)
        try:
            x = rng.standard_normal((2, 10)).astype(np.float32)
            _, _, stats = master.infer(x)
            assert stats.messages_sent == 2  # both broadcasts metered
            assert stats.messages_received == 1  # only one reply arrived
            assert stats.bytes_sent > 0
        finally:
            shutdown_team(master, workers)

    def test_failed_peer_socket_is_closed(self, rng):
        """A peer entering failed_workers must have its socket closed, not
        leaked (and not reused — a late reply would desync the framing)."""
        timeout = 0.3
        experts = make_experts(3)
        team = [experts[0], experts[1],
                SlowExpert(experts[2], delay_s=3 * timeout)]
        master, workers = deploy_local_team(team, degradation=DEGRADE,
                                            reply_timeout=timeout)
        try:
            x = rng.standard_normal((1, 10)).astype(np.float32)
            master.infer(x)
            failed = [p for p in master._peers if p.index == 2][0]
            assert failed.sock is None
            assert master.worker_health[2].timeouts == 1
        finally:
            shutdown_team(master, workers)

    def test_master_threads_do_not_grow_with_team_size(self, rng):
        """Each gather reads its replies in the calling thread: the
        master spends no thread per peer connection, so K = 4 leaves as
        many threads running after an infer as K = 2."""

        def threads_after_infer(k):
            master, workers = deploy_local_team(make_experts(k))
            try:
                master.infer(rng.standard_normal((2, 10)))
                return threading.active_count()
            finally:
                shutdown_team(master, workers)

        assert threads_after_infer(4) == threads_after_infer(2)

    def test_equally_slow_peers_are_not_hedged(self, rng):
        """Every reply is timed from its broadcast: were it timed by how
        long its own read blocked, the first peer read would carry the
        whole wait, pass the hedge delay and be cut off, though all
        peers answer equally fast."""
        experts = make_experts(4)
        team = [experts[0]] + [SlowExpert(e, delay_s=0.03)
                               for e in experts[1:]]
        master, workers = deploy_local_team(team, degradation=DEGRADE,
                                            reply_timeout=1.0)
        try:
            x = rng.standard_normal((1, 10)).astype(np.float32)
            for _ in range(8):
                _, _, stats = master.infer(x)
                assert not stats.hedged and stats.failures == 0
                assert min(stats.reply_latency_s.values()) >= 0.025
        finally:
            shutdown_team(master, workers)

    def test_straggler_waited_on_first_is_hedged(self, rng):
        """Peer 1 straggles and is the first the gather waits on; peers 2
        and 3 answer fast.  Their replies are read as they land, not
        after the straggler's, so they report their own latency, the
        pooled median (and so the hedge delay) stays theirs, and the
        straggler's latency passes the delay: it gets hedged."""
        experts = make_experts(4)
        team = [experts[0], SlowExpert(experts[1], delay_s=0.1),
                experts[2], experts[3]]
        master, workers = deploy_local_team(
            team, degradation=DEGRADE, reply_timeout=2.0,
            resilience=ResilienceConfig(hedge_min_samples=6,
                                        failure_threshold=10 ** 6,
                                        reset_timeout=0.0))
        try:
            x = rng.standard_normal((1, 10)).astype(np.float32)
            for _ in range(2):  # fill the latency window: hedging arms
                _, _, stats = master.infer(x)
                assert not stats.hedged and stats.failures == 0
                latency = stats.reply_latency_s
                assert latency[1] >= 0.09
                assert max(latency[2], latency[3]) < latency[1] / 4
            for _ in range(3):
                _, _, stats = master.infer(x)
                if stats.hedged:
                    break
            assert stats.hedged_workers == [1]
            assert stats.participants == 3
            assert master.worker_health[1].hedges >= 1
        finally:
            shutdown_team(master, workers)


class TestWorkerRecovery:
    def test_killed_then_restarted_worker_rejoins(self, rng):
        """A worker killed and restarted on the same port rejoins within
        the backoff window, without constructing a new master."""
        experts = make_experts(3)
        master, workers = deploy_local_team(
            experts, degradation=DEGRADE, reply_timeout=1.0,
            resilience=ResilienceConfig(reset_timeout=0.05,
                                        reset_timeout_max=0.2))
        try:
            x = rng.standard_normal((3, 10)).astype(np.float32)
            master.infer(x)
            assert master.live_team_size == 3
            workers[0].stop()
            for _ in range(3):
                master.infer(x)
            assert 1 in master.failed_workers
            workers[0].start()  # same port: the master can find it again
            deadline = time.monotonic() + 10.0
            while master.failed_workers and time.monotonic() < deadline:
                time.sleep(0.05)
                master.infer(x)
            assert not master.failed_workers, "worker never rejoined"
            assert master.worker_health[1].reconnects >= 1
            preds, _, _ = master.infer(x)
            np.testing.assert_array_equal(
                preds, TeamInference(experts).predict(x))
        finally:
            shutdown_team(master, workers)

    def test_breaker_spaces_reconnect_attempts(self, rng):
        """While a worker stays down, its circuit breaker trips open after
        the failure threshold, and the open window doubles per re-trip up
        to the cap instead of hammering the address."""
        experts = make_experts(2)
        master, workers = deploy_local_team(
            experts, degradation=DEGRADE, reply_timeout=0.5,
            resilience=ResilienceConfig(failure_threshold=2,
                                        reset_timeout=0.1,
                                        reset_timeout_max=0.4))
        try:
            x = rng.standard_normal((1, 10)).astype(np.float32)
            workers[0].stop()
            peer = master._peers[0]
            for _ in range(6):
                master.infer(x)
                if peer.breaker.state == "open":
                    break
            assert master.failed_workers == [1]
            assert peer.breaker.state == "open"
            assert not peer.breaker.allow()
            first_window = peer.breaker.open_timeout_s
            assert first_window == pytest.approx(0.1)
            # While the breaker is open, the master must not even dial.
            reconnects = master.worker_health[1].reconnects
            master.infer(x)
            assert master.worker_health[1].reconnects == reconnects
            # After the window, a half-open probe fails and re-opens with
            # a doubled window.
            time.sleep(first_window + 0.05)
            assert peer.breaker.state == "half-open"
            master.infer(x)
            assert peer.breaker.state == "open"
            assert peer.breaker.open_timeout_s == pytest.approx(0.2)
            assert peer.breaker.open_timeout_s <= 0.4
        finally:
            shutdown_team(master, workers)


class TestWorkerThreadReaping:
    def test_thread_list_stays_bounded(self):
        """One serve thread per connection must be reaped once finished —
        the list must not grow monotonically under heavy traffic."""
        worker = ExpertWorker(MLP(8, 3, depth=1, width=4,
                                  rng=np.random.default_rng(0)))
        worker.start()
        try:
            for _ in range(10):
                sock = connect(*worker.address)
                sock.send(protocol.encode("shutdown"))
                sock.close()
            time.sleep(0.2)  # let the serve threads drain
            sock = connect(*worker.address)  # accept loop reaps here
            try:
                sock.send(protocol.encode(
                    "infer", {}, {"x": np.zeros((1, 8), dtype=np.float32)}))
                reply = protocol.decode(sock.recv())
                assert reply.kind == "result"
            finally:
                sock.send(protocol.encode("shutdown"))
                sock.close()
            assert len(worker._server._threads) <= 3
        finally:
            worker.stop()

    def test_restart_listens_on_same_port(self):
        worker = ExpertWorker(MLP(8, 3, depth=1, width=4,
                                  rng=np.random.default_rng(1)))
        worker.start()
        address = worker.address
        worker.stop()
        worker.start()
        try:
            assert worker.address == address
            with connect(*address) as sock:
                sock.send(protocol.encode("shutdown"))
        finally:
            worker.stop()
