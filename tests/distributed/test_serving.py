"""TeamNetServer: concurrent micro-batched serving over one master.

The contract under test: any number of threads may submit concurrently,
requests coalesce into micro-batches on the wire, and every answer is
**byte-identical** to what a sequential ``master.infer`` of that request
alone would have returned (``coalesce="exact"``), with admission bounds,
drain-on-close, and failure propagation through futures.
"""

import threading

import numpy as np
import pytest

from repro.distributed.serving import (RequestAbandoned, ServerClosed,
                                       ServerOverloaded, TeamNetServer)
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


class TestFailurePropagation:
    def test_worker_failure_rejects_the_whole_batch(self):
        experts, requests = team_and_requests(14, n_requests=3)
        with forbid_sockets(), \
                SimCluster(experts, degrade_on_failure=False,
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
                SimCluster(experts, degrade_on_failure=False,
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
                SimCluster(experts, degrade_on_failure=True,
                           reply_timeout=0.5) as cluster:
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
