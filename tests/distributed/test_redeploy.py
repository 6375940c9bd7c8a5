"""Expert failover via redeployment: store -> standby -> full team.

Degradation keeps a team answering when a worker dies; redeploy is how
the team gets its *specialization* back — the master pushes the dead
slot's checkpointed expert archive onto a standby node and rewires the
slot to it.  These tests run the whole protocol on the simulated fabric:
kill a worker past the breaker cap, redeploy onto a standby that booted
with the wrong (random) weights, and require the restored team's
predictions to be byte-identical to the pre-kill ones.
"""

import threading
import time

import numpy as np
import pytest

from repro.comm import protocol
from repro.core import TeamInference, TeamNetTrainer, TrainerConfig
from repro.core.inference import expert_forward
from repro.data import synthetic_mnist
from repro.distributed import ResilienceConfig
from repro.distributed.teamnet_runtime import ExpertWorker, WorkerFailure
from repro.nn import (build_model, downsize, mlp_spec, model_from_bytes,
                      model_to_bytes)
from repro.store import CheckpointStore
from repro.testkit import SimCluster, forbid_sockets

SEED = 3
TEAM = 3
IN_DIM = 784  # mlp_spec input


def fast_resilience():
    return ResilienceConfig(failure_threshold=1, reset_timeout=0.0,
                            reset_timeout_max=0.0)


@pytest.fixture(scope="module")
def trained():
    """A trained 3-expert team checkpointed once — shared read-only."""
    spec = downsize(mlp_spec(4, width=16), TEAM)
    experts = [build_model(spec, np.random.default_rng((SEED, i)))
               for i in range(TEAM)]
    trainer = TeamNetTrainer(experts, TrainerConfig(
        epochs=1, batch_size=32, seed=SEED, gate_max_iterations=6))
    trainer.train(synthetic_mnist(64, seed=SEED))
    return trainer, spec


@pytest.fixture
def store(trained, tmp_path):
    trainer, spec = trained
    store = CheckpointStore(tmp_path / "ckpt", fsync=False)
    store.save(trainer, spec)
    return store


def fresh_expert(spec, salt=999):
    """Same architecture, wrong (untrained) weights — a cold standby."""
    return build_model(spec, np.random.default_rng((SEED, salt)))


class TestRedeploy:
    def test_kill_then_redeploy_restores_predictions(self, trained, store):
        trainer, spec = trained
        x = np.random.default_rng(SEED).standard_normal((4, IN_DIM))
        with forbid_sockets(), \
                SimCluster(trainer.experts,
                           resilience=fast_resilience()) as cluster:
            cluster.master.store = store
            baseline, _, _ = cluster.infer(x)
            assert cluster.surviving_team == [0, 1, 2]

            cluster.crash_worker(1)
            degraded, _, stats = cluster.infer(x)
            assert stats.degraded and cluster.surviving_team == [0, 2]

            standby = ExpertWorker(fresh_expert(spec), host="sim",
                                   transport=cluster.network.transport)
            standby.start()
            try:
                cluster.master.redeploy(1, standby.address)
                restored, _, stats = cluster.infer(x)
                assert not stats.degraded
                assert cluster.surviving_team == [0, 1, 2]
                assert restored.tobytes() == baseline.tobytes()
                snapshot = cluster.master.resilience_snapshot()
                assert snapshot[1].redeployments == 1
                assert snapshot[1].breaker_state == "closed"
                assert not snapshot[1].suspect
                assert cluster.master.redeploy_traffic.bytes_sent > 0
            finally:
                standby.stop()

    @pytest.mark.parametrize("quantize", [False, True],
                             ids=["float", "int8"])
    def test_explicit_blob_needs_no_store(self, trained, quantize):
        """An int8 archive is storage only: it ships as int8 codes and
        the compiled standby serves the float weights it loads as."""
        trainer, spec = trained
        x = np.random.default_rng(SEED).standard_normal((2, IN_DIM))
        blob = model_to_bytes(trainer.experts[2], spec, quantize=quantize)
        shipped, _ = model_from_bytes(blob)
        want_preds, want_winner = TeamInference(
            trainer.experts[:2] + [shipped],
            engine="compiled").predict_with_winner(x)
        with forbid_sockets(), \
                SimCluster(trainer.experts, resilience=fast_resilience(),
                           engine="compiled") as cluster:
            baseline = cluster.predict(x)
            cluster.crash_worker(2)
            standby = ExpertWorker(fresh_expert(spec), host="sim",
                                   transport=cluster.network.transport,
                                   engine="compiled")
            standby.start()
            try:
                cluster.master.redeploy(2, standby.address, blob=blob)
                preds, winner, stats = cluster.infer(x)
                assert not stats.degraded
                assert preds.tobytes() == want_preds.tobytes()
                assert winner.tobytes() == want_winner.tobytes()
                served = cluster.master.last_outputs[2].probs
                shipped_probs = expert_forward(shipped, x,
                                               engine="compiled").probs
                assert served.tobytes() == shipped_probs.tobytes()
                if not quantize:
                    assert preds.tobytes() == baseline.tobytes()
            finally:
                standby.stop()

    def test_no_blob_and_no_store_is_an_error(self, trained):
        trainer, _ = trained
        with forbid_sockets(), SimCluster(trainer.experts) as cluster:
            with pytest.raises(ValueError, match="store"):
                cluster.master.redeploy(1, ("sim", 60000))

    def test_unreachable_standby_leaves_peer_untouched(self, trained,
                                                       store):
        trainer, _ = trained
        x = np.random.default_rng(SEED).standard_normal((2, IN_DIM))
        with forbid_sockets(), SimCluster(trainer.experts) as cluster:
            cluster.master.store = store
            baseline = cluster.predict(x)
            with pytest.raises(WorkerFailure, match="unreachable"):
                cluster.master.redeploy(1, ("sim", 60001))
            snapshot = cluster.master.resilience_snapshot()
            assert snapshot[1].redeployments == 0
            assert cluster.predict(x).tobytes() == baseline.tobytes()

    def test_corrupt_blob_rejected_without_bricking_the_standby(
            self, trained):
        trainer, spec = trained
        x = np.random.default_rng(SEED).standard_normal((2, IN_DIM))
        with forbid_sockets(), SimCluster(trainer.experts) as cluster:
            standby = ExpertWorker(trainer.experts[1], host="sim",
                                   transport=cluster.network.transport)
            standby.start()
            try:
                with pytest.raises(WorkerFailure, match="rejected"):
                    cluster.master.redeploy(1, standby.address,
                                            blob=b"not an archive")
                # The bad push must not replace the standby's expert: a
                # good deploy to the same node still works afterwards.
                cluster.master.redeploy(
                    1, standby.address,
                    blob=model_to_bytes(trainer.experts[1], spec))
                assert cluster.predict(x).shape == (2,)
            finally:
                standby.stop()

    def test_bad_index_rejected(self, trained):
        trainer, _ = trained
        with forbid_sockets(), SimCluster(trainer.experts) as cluster:
            with pytest.raises(IndexError):
                cluster.master.redeploy(0, ("sim", 60000), blob=b"x")
            with pytest.raises(IndexError):
                cluster.master.redeploy(9, ("sim", 60000), blob=b"x")


class _DrainRecorderEndpoint:
    """A fake standby connection that answers every recv with a stale
    (wrong-seq) ack and records the timeout each recv was given — the
    probe for the one-deadline drain (the old code reset the full
    timeout per discarded frame, so a chatty standby stalled redeploy
    forever)."""

    def __init__(self):
        self.timeouts = []
        self.closed = False

    def send(self, payload):
        pass

    def recv(self, timeout=None):
        self.timeouts.append(timeout)
        if timeout is not None and timeout <= 0.01:
            raise TimeoutError("deadline exhausted")
        time.sleep(0.03)
        return protocol.encode(protocol.DEPLOYED, {"seq": -1})

    def close(self):
        self.closed = True


class TestRedeployReplyHandling:
    """Regressions: a misbehaving standby must cost a WorkerFailure and
    a closed socket — never a leaked socket, a raw decode error, or an
    unbounded stall."""

    def test_garbage_reply_is_workerfailure_not_valueerror(self, trained):
        trainer, _ = trained
        x = np.random.default_rng(SEED).standard_normal((2, IN_DIM))
        with forbid_sockets(), SimCluster(trainer.experts) as cluster:
            baseline = cluster.predict(x)
            listener = cluster.network.listen("sim", 0)
            accepted = []

            def garbage_standby():
                conn = listener.accept(timeout=2.0)
                accepted.append(conn)
                conn.recv(timeout=2.0)  # the DEPLOY push
                conn.send(b"definitely not a protocol frame")

            thread = threading.Thread(target=garbage_standby, daemon=True)
            thread.start()
            try:
                # Old code: protocol.decode's ProtocolError (a ValueError)
                # escaped raw and the connection leaked.
                with pytest.raises(WorkerFailure, match="deploy to standby"):
                    cluster.master.redeploy(1, ("sim", listener.port),
                                            blob=b"junk", timeout=2.0)
            finally:
                thread.join(timeout=5.0)
            assert accepted and accepted[0]._peer_closed  # socket closed
            snapshot = cluster.master.resilience_snapshot()
            assert snapshot[1].redeployments == 0
            assert cluster.predict(x).tobytes() == baseline.tobytes()

    def test_stale_frame_drain_shares_one_deadline(self, trained):
        trainer, _ = trained
        with forbid_sockets(), SimCluster(trainer.experts) as cluster:
            recorder = _DrainRecorderEndpoint()
            cluster.master._transport = _OneShotTransport(recorder)
            start = time.monotonic()
            with pytest.raises(WorkerFailure, match="deploy to standby"):
                cluster.master.redeploy(1, ("sim", 59999), blob=b"junk",
                                        timeout=0.15)
            elapsed = time.monotonic() - start
            assert recorder.closed
            # The whole exchange fits one deadline (plus scheduling
            # slack), no matter how many stale frames were drained.
            assert elapsed < 1.0
            assert len(recorder.timeouts) >= 2
            # Each drained frame consumed part of the budget instead of
            # resetting it.
            assert recorder.timeouts[-1] < recorder.timeouts[0]
            assert all(later <= earlier for earlier, later in
                       zip(recorder.timeouts, recorder.timeouts[1:]))


class _OneShotTransport:
    """connect() hands back one prebuilt fake endpoint."""

    def __init__(self, endpoint):
        self.endpoint = endpoint

    def connect(self, host, port, **kwargs):
        return self.endpoint


class TestWorkerStoreReload:
    def test_restart_reloads_checkpointed_expert(self, trained, store):
        trainer, spec = trained
        cold = fresh_expert(spec)
        worker = ExpertWorker(cold, host="127.0.0.1", store=store,
                              expert_index=1)
        # start() swaps in the stored expert before listening; stop
        # immediately — the swap is what's under test here.
        worker.start()
        try:
            trained_state = trainer.experts[1].state_dict()
            for name, array in worker.expert.state_dict().items():
                np.testing.assert_array_equal(array, trained_state[name])
            assert worker.expert is not cold
        finally:
            worker.stop()

    def test_empty_store_is_tolerated(self, trained, tmp_path):
        trainer, spec = trained
        empty = CheckpointStore(tmp_path / "empty", fsync=False)
        cold = fresh_expert(spec)
        worker = ExpertWorker(cold, host="127.0.0.1", store=empty,
                              expert_index=1)
        worker.start()
        try:
            assert worker.expert is cold  # boots with what it was given
        finally:
            worker.stop()
