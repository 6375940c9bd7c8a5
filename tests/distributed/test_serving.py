"""TeamNetServer: concurrent micro-batched serving over one master.

The contract under test: any number of threads may submit concurrently,
requests coalesce into micro-batches on the wire, and every answer is
**byte-identical** to what a sequential ``master.infer`` of that request
alone would have returned (``coalesce="exact"``), with admission bounds,
drain-on-close, and failure propagation through futures.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.distributed import DegradationPolicy
from repro.distributed.serving import (RequestAbandoned, ServeFuture,
                                       ServerClosed, ServerOverloaded,
                                       TeamNetServer)
from repro.distributed.teamnet_runtime import (WorkerFailure,
                                               deploy_local_team)
from repro.testkit import SimCluster, forbid_sockets, strategies


def team_and_requests(seed, n_requests, rows=(1, 5)):
    """A random expert team plus ``n_requests`` compatible inputs."""
    rng = strategies.rng_from(seed, 77)
    experts, x = strategies.expert_team(rng)
    requests = [rng.standard_normal(
        (int(rng.integers(*rows)), x.shape[1])).astype(x.dtype)
        for _ in range(n_requests)]
    return experts, requests


def sequential_answers(experts, requests):
    """The golden trace: each request alone through ``master.infer``."""
    with SimCluster(experts) as cluster:
        return [cluster.master.infer(x) for x in requests]


class TestByteIdenticalToSequential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concurrent_submitters_get_sequential_answers(self, seed):
        experts, requests = team_and_requests(seed, n_requests=12)
        reference = sequential_answers(experts, requests)
        with forbid_sockets(), SimCluster(experts) as cluster:
            with cluster.serve(max_batch=4) as server:
                results = [None] * len(requests)

                def client(i):
                    results[i] = server.submit(requests[i]).result(
                        timeout=30.0)

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(len(requests))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
        for i, ((preds, winner, _), (ref_preds, ref_winner, _)) \
                in enumerate(zip(results, reference)):
            assert preds.tobytes() == ref_preds.tobytes(), f"request {i}"
            assert winner.tobytes() == ref_winner.tobytes(), f"request {i}"

    def test_prequeued_requests_coalesce_and_still_match(self):
        experts, requests = team_and_requests(3, n_requests=8)
        reference = sequential_answers(experts, requests)
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = TeamNetServer(cluster.master, max_batch=8)
            # Queue everything before the dispatcher exists: the first
            # batch deterministically coalesces all 8 requests.
            futures = [server.submit(x) for x in requests]
            server.start()
            try:
                results = [f.result(timeout=30.0) for f in futures]
                stats = server.stats()
            finally:
                server.close()
        assert stats.batches < len(requests)
        assert stats.max_batch_requests > 1
        assert stats.completed == len(requests)
        assert stats.batched_rows == sum(len(x) for x in requests)
        for (preds, _, _), (ref_preds, _, _) in zip(results, reference):
            assert preds.tobytes() == ref_preds.tobytes()

    def test_mixed_dtypes_share_one_batch(self):
        rng = strategies.rng_from(11, 0)
        experts, x = strategies.expert_team(rng)
        narrow = x.astype(np.float64)
        wide = rng.standard_normal((3, x.shape[1])).astype(np.float32)
        with forbid_sockets(), SimCluster(experts) as cluster:
            ref = sequential_answers(experts, [narrow, wide])
            server = TeamNetServer(cluster.master, max_batch=8)
            futures = [server.submit(narrow), server.submit(wide)]
            server.start()
            try:
                got = [f.result(timeout=30.0) for f in futures]
                stats = server.stats()
            finally:
                server.close()
        # The dispatcher casts the concatenated batch to the team dtype
        # once: one broadcast.
        assert stats.batches == 1
        for (preds, _, _), (ref_preds, _, _) in zip(got, ref):
            assert preds.tobytes() == ref_preds.tobytes()

    def test_integer_requests_keep_a_batch_of_their_own(self):
        rng = strategies.rng_from(11, 1)
        experts, x = strategies.expert_team(rng)
        ints = rng.integers(-3, 4, size=(2, x.shape[1]))
        floats = rng.standard_normal((3, x.shape[1]))
        with forbid_sockets(), SimCluster(experts) as cluster:
            ref = sequential_answers(experts, [ints, floats])
            server = TeamNetServer(cluster.master, max_batch=8)
            futures = [server.submit(ints), server.submit(floats)]
            server.start()
            try:
                got = [f.result(timeout=30.0) for f in futures]
                stats = server.stats()
            finally:
                server.close()
        # An int64 is not always exact in the float a mixed batch would
        # be promoted to, so casting it there first could round twice.
        assert stats.batches == 2
        for (preds, _, _), (ref_preds, _, _) in zip(got, ref):
            assert preds.tobytes() == ref_preds.tobytes()

    def test_fused_mode_matches_on_answers(self):
        """``coalesce="fused"`` trades the byte-exactness guarantee for
        one fused forward; the *integer* answers must still agree."""
        experts, requests = team_and_requests(5, n_requests=6)
        reference = sequential_answers(experts, requests)
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = TeamNetServer(cluster.master, max_batch=8,
                                   coalesce="fused")
            futures = [server.submit(x) for x in requests]
            server.start()
            try:
                results = [f.result(timeout=30.0) for f in futures]
            finally:
                server.close()
        for (preds, winner, _), (ref_preds, ref_winner, _) \
                in zip(results, reference):
            assert np.array_equal(preds, ref_preds)
            assert np.array_equal(winner, ref_winner)


class TestAdmissionAndLifecycle:
    def test_overload_sheds_instead_of_queueing(self):
        experts, requests = team_and_requests(4, n_requests=3)
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = TeamNetServer(cluster.master, max_queue=2)
            server.submit(requests[0])
            server.submit(requests[1])
            with pytest.raises(ServerOverloaded):
                server.submit(requests[2])
            assert server.stats().rejected == 1
            assert server.queue_depth == 2
            server.close()

    def test_submit_after_close_raises(self):
        experts, requests = team_and_requests(6, n_requests=1)
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = cluster.serve()
            server.close()
            with pytest.raises(ServerClosed):
                server.submit(requests[0])

    def test_close_drains_submitted_requests(self):
        experts, requests = team_and_requests(8, n_requests=5)
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = cluster.serve(max_batch=2)
            futures = [server.submit(x) for x in requests]
            server.close()  # must complete them, not drop them
            for x, future in zip(requests, futures):
                assert future.done()
                preds, winner, _ = future.result(timeout=1.0)
                assert preds.shape == (len(x),)
                assert winner.shape == (len(x),)
            assert server.stats().completed == len(requests)

    def test_close_before_start_rejects_queued_futures(self):
        experts, requests = team_and_requests(9, n_requests=2)
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = TeamNetServer(cluster.master)
            futures = [server.submit(x) for x in requests]
            server.close()  # never started: nothing will ever drain
            for future in futures:
                with pytest.raises(ServerClosed):
                    future.result(timeout=1.0)

    def test_non_2d_input_rejected_at_submit(self):
        experts, requests = team_and_requests(10, n_requests=1)
        with forbid_sockets(), SimCluster(experts) as cluster:
            with cluster.serve() as server:
                with pytest.raises(ValueError, match="2-D"):
                    server.submit(requests[0][0])

    def test_uncastable_input_rejected_alone_at_submit(self):
        experts, requests = team_and_requests(13, n_requests=2)
        reference = sequential_answers(experts, requests)
        x = requests[0]
        bad = [np.zeros(x.shape, dtype="datetime64[s]"), x.astype(str),
               x.astype(complex), x.astype(object)]
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = TeamNetServer(cluster.master, max_batch=8)
            first = server.submit(x)
            for y in bad:
                with pytest.raises(TypeError, match="cannot serve"):
                    server.submit(y)
            # Queued beside the refused ones, the good request still
            # gets its answer, and the server keeps serving after it.
            server.start()
            try:
                got = [first.result(timeout=30.0),
                       server.submit(requests[1]).result(timeout=30.0)]
                stats = server.stats()
            finally:
                server.close()
        assert stats.submitted == stats.completed == 2
        for (preds, _, _), (ref_preds, _, _) in zip(got, reference):
            assert preds.tobytes() == ref_preds.tobytes()

    def test_invalid_configuration_rejected(self):
        experts, _ = team_and_requests(12, n_requests=1)
        with forbid_sockets(), SimCluster(experts) as cluster:
            with pytest.raises(ValueError):
                TeamNetServer(cluster.master, max_batch=0)
            with pytest.raises(ValueError):
                TeamNetServer(cluster.master, coalesce="approximate")

    def test_result_timeout_raises_while_in_flight(self):
        experts, requests = team_and_requests(13, n_requests=1)
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = TeamNetServer(cluster.master)  # never started
            future = server.submit(requests[0])
            with pytest.raises(TimeoutError, match="in flight"):
                future.result(timeout=0.05)
            server.close()


class TestAbandonedRequests:
    def test_timed_out_then_abandoned_future_counts_late_resolution(self):
        experts, requests = team_and_requests(18, n_requests=1)
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = TeamNetServer(cluster.master)  # not started yet
            future = server.submit(requests[0])
            with pytest.raises(TimeoutError, match="in flight"):
                future.result(timeout=0.05)
            # The TimeoutError alone changes nothing: the request is
            # still in flight.  Abandoning it is the terminal act.
            assert future.state == "pending"
            assert future.abandon()
            assert future.state == "abandoned"
            assert not future.abandon()  # idempotent
            stats = server.stats()
            assert stats.abandoned == 1
            assert stats.late_resolutions == 0
            server.start()
            server.close()  # drain completes the abandoned request
            stats = server.stats()
            assert stats.completed == 1
            assert stats.late_resolutions == 1, \
                "the late answer must be counted, not vanish silently"
            with pytest.raises(RequestAbandoned):
                future.result(timeout=1.0)
            # The outcome itself is retained (the failover layer peeks
            # at settled futures); it is only the abandoning caller that
            # never sees it through result().
            value, error = future.outcome()
            assert error is None
            preds, winner, _ = value
            assert preds.shape == (len(requests[0]),)

    def test_abandon_after_settlement_is_refused(self):
        experts, requests = team_and_requests(19, n_requests=1)
        with forbid_sockets(), SimCluster(experts) as cluster:
            with cluster.serve() as server:
                future = server.submit(requests[0])
                future.result(timeout=30.0)
                assert not future.abandon()
                assert future.state == "done"
                stats = server.stats()
                assert stats.abandoned == 0
                assert stats.late_resolutions == 0


def blocked_waiters(future):
    """How many threads sleep in ``result()`` on a pending future."""
    waiter = future._waiter
    return 0 if waiter is None else len(waiter._cond._waiters)


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class TestServeFuture:
    def test_every_blocked_waiter_wakes_on_one_settle(self):
        future = ServeFuture()
        got = []

        def waiter():
            got.append(future.result(timeout=10.0))

        threads = [threading.Thread(target=waiter) for _ in range(4)]
        for t in threads:
            t.start()
        wait_for(lambda: blocked_waiters(future) == 4)
        value = ("preds", "winner", "stats")
        assert not future._resolve(value)
        for t in threads:
            t.join(timeout=10.0)
        assert len(got) == 4 and all(v is value for v in got)

    def test_no_waiter_is_made_unless_someone_blocks(self):
        future = ServeFuture()
        future._resolve(("answer",))
        assert future.result() == ("answer",)
        assert future._waiter is None and future._callbacks is None

    def test_timed_out_result_leaves_the_future_settleable(self):
        future = ServeFuture()
        with pytest.raises(TimeoutError, match="in flight"):
            future.result(timeout=0.01)
        assert future.state == "pending"
        assert not future._resolve(("late but fine",))
        assert future.result(timeout=0.0) == ("late but fine",)
        assert future.state == "done"
        assert future.done_at is not None

    def test_abandon_racing_a_settle_agrees_on_who_won(self):
        barrier = threading.Barrier(2)
        wins = 0
        for round_ in range(1000):
            future = ServeFuture()
            outcome = {}

            def abandon():
                barrier.wait()
                if round_ % 3 == 0:
                    time.sleep(0)   # hand the GIL over: vary the winner
                outcome["abandoned"] = future.abandon()

            thread = threading.Thread(target=abandon)
            thread.start()
            barrier.wait()
            if round_ % 2:
                time.sleep(0)
                late = future._reject(RuntimeError("failed"))
            else:
                late = future._resolve(("answer",))
            thread.join(timeout=10.0)
            assert outcome["abandoned"] == late, f"round {round_}"
            assert future.state == ("abandoned" if late else
                                    "failed" if round_ % 2 else "done")
            wins += late
        assert 0 < wins < 1000, "the race never went both ways"

    def test_abandon_racing_a_server_settle_is_counted_once(self):
        experts, requests = team_and_requests(20, n_requests=1)
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = TeamNetServer(cluster.master, max_queue=1000)
            futures = [server.submit(requests[0]) for _ in range(1000)]
            won = []
            barrier = threading.Barrier(2)

            def abandon():
                barrier.wait()
                for i, future in enumerate(futures):
                    if i % 100 == 0:
                        time.sleep(0)   # let the settle pass cut in
                    won.append(future.abandon())

            thread = threading.Thread(target=abandon)
            thread.start()
            barrier.wait()
            time.sleep(0.0002)
            server.close(drain=False)   # one settle pass over the queue
            thread.join(timeout=10.0)
        stats = server.stats()
        assert stats.failed == 1000
        assert stats.abandoned == stats.late_resolutions == sum(won)
        for future, abandoned in zip(futures, won):
            assert future.done()
            assert future.state == ("abandoned" if abandoned else "failed")

    @pytest.mark.parametrize("how", ["resolve", "reject", "abandoned"])
    def test_callbacks_run_once_whenever_they_are_added(self, how):
        future = ServeFuture()
        calls = []
        future.add_done_callback(lambda f: calls.append("before"))
        if how == "abandoned":
            assert future.abandon()
        stop = threading.Event()

        def register():     # keeps adding callbacks across the settle
            n = 0
            while not stop.is_set() or n < 100:
                future.add_done_callback(
                    lambda f, n=n: calls.append(("during", n)))
                n += 1
            registered.append(n)

        registered = []
        thread = threading.Thread(target=register)
        thread.start()
        wait_for(lambda: future._callbacks is not None
                 and len(future._callbacks) > 50)
        if how == "reject":
            future._reject(RuntimeError("failed"))
        else:
            future._resolve(("answer",))
        stop.set()
        thread.join(timeout=10.0)
        future.add_done_callback(lambda f: calls.append("after"))
        during = [c for c in calls if isinstance(c, tuple)]
        assert sorted(n for _, n in during) == list(range(registered[0]))
        assert calls.count("before") == 1 and calls.count("after") == 1
        assert calls[0] == "before" and calls[-1] == "after"


class TestCallbackFailures:
    def test_a_raising_callback_is_counted_and_serving_goes_on(self):
        experts, requests = team_and_requests(12, n_requests=2)
        with forbid_sockets(), SimCluster(experts) as cluster:
            server = TeamNetServer(cluster.master)
            try:
                future = server.submit(requests[0])
                ran = []
                future.add_done_callback(lambda f: 1 / 0)
                future.add_done_callback(ran.append)
                server.start()
                future.result(timeout=3)
                wait_for(lambda: ran == [future])
                assert server.submit(requests[1]).result(timeout=3)
                assert server._collector.is_alive()
                assert server.stats().callback_errors == 1
            finally:
                server.close()


class TestWakeRule:
    def test_an_arrival_ends_a_linger(self):
        experts, requests = team_and_requests(21, n_requests=2)
        with forbid_sockets(), SimCluster(experts) as cluster:
            with cluster.serve(linger_s=5.0) as server:
                start = time.monotonic()
                first = server.submit(requests[0])
                time.sleep(0.05)
                second = server.submit(requests[1])
                first.result(timeout=10.0)
                second.result(timeout=10.0)
                elapsed = time.monotonic() - start
                stats = server.stats()
        assert elapsed < 1.0
        assert stats.batches == 1 and stats.max_batch_requests == 2

    def test_concurrent_submitters_are_all_counted(self):
        experts, requests = team_and_requests(22, n_requests=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # interleave the submitters finely
        try:
            with forbid_sockets(), SimCluster(experts) as cluster:
                with cluster.serve(max_batch=16, max_queue=400) as server:
                    def client(x):
                        futures = [server.submit(x) for _ in range(50)]
                        for future in futures:
                            future.result(timeout=30.0)

                    threads = [threading.Thread(target=client, args=(x,))
                               for x in requests]
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60.0)
                    assert not any(t.is_alive() for t in threads)
                    stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        assert stats.submitted == stats.completed + stats.failed == 400
        assert stats.failed == 0


class TestFailurePropagation:
    def test_worker_failure_rejects_the_whole_batch(self):
        experts, requests = team_and_requests(14, n_requests=3)
        with forbid_sockets(), \
                SimCluster(experts, degradation=DegradationPolicy(),
                           reply_timeout=0.5) as cluster:
            cluster.crash_worker(1)
            server = TeamNetServer(cluster.master, max_batch=4)
            futures = [server.submit(x) for x in requests]
            server.start()
            try:
                for future in futures:
                    with pytest.raises(WorkerFailure):
                        future.result(timeout=30.0)
                assert server.stats().failed == len(requests)
            finally:
                server.close()

    def test_close_during_inflight_gather_with_dead_worker(self):
        """close(drain=False) while a gather is on the wire against a
        dead worker: the queued tail is rejected with ServerClosed
        immediately (no waiting out the dead master's backlog), the
        in-flight batch concludes through the collector with
        WorkerFailure, and no server thread survives."""
        experts, requests = team_and_requests(17, n_requests=4)
        with forbid_sockets(), \
                SimCluster(experts, degradation=DegradationPolicy(),
                           reply_timeout=0.5) as cluster:
            cluster.crash_worker(1)
            server = TeamNetServer(cluster.master, max_batch=1)
            entered = threading.Event()
            release = threading.Event()
            begin = cluster.master._begin

            def gated_begin(x, **kwargs):
                entered.set()
                release.wait(timeout=10.0)
                return begin(x, **kwargs)

            cluster.master._begin = gated_begin
            futures = [server.submit(x) for x in requests]
            server.start()
            assert entered.wait(timeout=10.0)  # batch 0 is mid-gather
            closer = threading.Thread(target=server.close,
                                      kwargs={"drain": False,
                                              "timeout": 30.0})
            closer.start()
            try:
                # The queued tail must be rejected while batch 0 is
                # still blocked on the wire.
                for future in futures[1:]:
                    with pytest.raises(ServerClosed):
                        future.result(timeout=10.0)
            finally:
                release.set()
                closer.join(timeout=30.0)
            assert not closer.is_alive()
            with pytest.raises(WorkerFailure):
                futures[0].result(timeout=1.0)
            assert not server._dispatcher.is_alive()
            assert not server._collector.is_alive()
            stats = server.stats()
            assert stats.failed == len(requests)
            assert stats.completed == 0

    def test_degraded_serving_keeps_answering(self):
        experts, requests = team_and_requests(15, n_requests=4)
        with forbid_sockets(), \
                SimCluster(experts, reply_timeout=0.5) as cluster:
            cluster.crash_worker(1)
            with cluster.serve(max_batch=4) as server:
                for x in requests:
                    preds, winner, stats = server.infer(x, timeout=30.0)
                    assert preds.shape == (len(x),)
                    assert stats.degraded
                    assert 1 not in np.unique(winner)


class TestRealTransport:
    def test_serve_over_tcp_matches_sequential(self):
        """Smoke the whole stack on real localhost sockets via
        ``TeamNetMaster.serve()``."""
        rng = strategies.rng_from(16, 0)
        experts, x = strategies.expert_team(rng)
        requests = [rng.standard_normal((2, x.shape[1])).astype(x.dtype)
                    for _ in range(6)]
        reference = sequential_answers(experts, requests)
        master, workers = deploy_local_team(experts, reply_timeout=5.0)
        try:
            with master.serve(max_batch=4) as server:
                results = [None] * len(requests)

                def client(i):
                    results[i] = server.submit(requests[i]).result(
                        timeout=30.0)

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(len(requests))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30.0)
            for (preds, winner, _), (ref_preds, ref_winner, _) \
                    in zip(results, reference):
                assert preds.tobytes() == ref_preds.tobytes()
                assert winner.tobytes() == ref_winner.tobytes()
        finally:
            master.close()
            for worker in workers:
                worker.stop()
