"""The experts' dtype is the compute dtype.

A team fixes one dtype at deploy, from its experts' parameters; every
request path casts the caller's input to it once, before encode, so the
wire carries the team dtype and a worker refuses any other.  A float64
caller of a float32 team therefore gets exactly the answers of a caller
who cast the input first.
"""

import numpy as np
import pytest

from repro.comm import protocol
from repro.core import ExpertOutput, TeamInference
from repro.core.entropy import softmax_entropy
from repro.core.inference import (_COMPILED, compiled_expert_for,
                                  expert_dtype, expert_forward, team_dtype)
from repro.distributed import (CanarySet, ExpertWorker, IntegrityConfig,
                               deploy_local_team, make_canary_set)
from repro.nn import MLP, Tensor, no_grad
from repro.store import CheckpointStore
from repro.testkit import SimCluster, forbid_sockets
from repro.testkit.sim_transport import SimNetwork

FEATURES, CLASSES = 12, 5


def _experts(n=3, features=FEATURES):
    return [MLP(features, CLASSES, depth=1, width=7,
                rng=np.random.default_rng((5, i))) for i in range(n)]


def _as_float64(model):
    for param in model.parameters():
        param.data = param.data.astype(np.float64)
    return model


def _same(got, want):
    preds, winner, _ = got
    want_preds, want_winner, _ = want
    assert preds.tobytes() == want_preds.tobytes()
    assert winner.tobytes() == want_winner.tobytes()


@pytest.fixture
def inputs(rng):
    x64 = rng.standard_normal((9, FEATURES))
    return x64, x64.astype(np.float32)


class TestCastOnceAtTheBoundary:
    def test_team_inference(self, inputs):
        x64, x32 = inputs
        team = TeamInference(_experts())
        assert team.dtype == np.float32
        for got, want in zip(team.forward_all(x64), team.forward_all(x32)):
            assert got.probs.dtype == np.float32
            assert got.probs.tobytes() == want.probs.tobytes()
            assert got.entropy.tobytes() == want.entropy.tobytes()

    @pytest.mark.parametrize("fabric", ["sim", "tcp"])
    def test_master_infer_and_server_submit(self, fabric, inputs):
        x64, x32 = inputs
        experts = _experts()
        want = TeamInference(experts).predict_with_winner(x32)
        if fabric == "sim":
            with forbid_sockets(), SimCluster(experts) as cluster:
                self._check_master(cluster.master, x64, x32, want)
            return
        master, workers = deploy_local_team(experts)
        try:
            self._check_master(master, x64, x32, want)
        finally:
            master.close()
            for worker in workers:
                worker.stop()

    @staticmethod
    def _check_master(master, x64, x32, want):
        assert master.dtype == np.float32
        got = master.infer(x64)
        _same(got, master.infer(x32))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert master.last_outputs[1].probs.dtype == np.float32
        server = master.serve(max_batch=4)
        try:
            _same(server.submit(x64).result(timeout=30.0),
                  server.submit(x32).result(timeout=30.0))
            _same(server.submit(x64).result(timeout=30.0), got)
        finally:
            server.close()

    def test_infer_frame_carries_the_team_dtype(self, rng):
        # The benchmark's batched MLP request: 64 rows of 784 features.
        experts = _experts(n=4, features=784)
        x64 = rng.standard_normal((64, 784))
        with forbid_sockets(), SimCluster(experts) as cluster:
            _, _, stats = cluster.infer(x64)
        frame = stats.bytes_sent / stats.messages_sent
        assert stats.messages_sent == 3
        assert 64 * 784 * 4 < frame < 64 * 784 * 4 + 1_000  # ~200,800 B
        promoted = len(protocol.encode(protocol.INFER, {"seq": 1},
                                       {"x": x64}))
        assert frame < promoted / 2 + 1_000


class TestWorkerRefusesOtherDtypes:
    def test_typed_error_and_the_serve_thread_survives(self, inputs):
        x64, x32 = inputs
        expert = _experts(n=1)[0]
        with forbid_sockets():
            network = SimNetwork()
            worker = ExpertWorker(expert, host="sim",
                                  transport=network.transport)
            worker.start()
            sock = network.transport.connect(*worker.address)

            def ask(kind, seq, x):
                sock.send(protocol.encode(kind, {"seq": seq}, {"x": x}))
                return protocol.decode(sock.recv(timeout=2.0))

            try:
                for seq, kind in enumerate((protocol.INFER,
                                            protocol.CANARY)):
                    refused = ask(kind, seq, x64)
                    assert refused.kind == protocol.ERROR
                    assert refused.meta["expected_dtype"] == "float32"
                    assert refused.meta["seq"] == seq
                    assert "float64" in refused.meta["error"]
                assert worker.forwards == 0
                # Same connection, right dtype: answered as usual.
                good = ask(protocol.INFER, 7, x32)
                assert good.kind == protocol.RESULT
                assert good.arrays["probs"].tobytes() == \
                    expert_forward(expert, x32).probs.tobytes()
            finally:
                sock.close()
                worker.stop()


class TestDeployRefusesMixedDtypes:
    def test_every_deploy_path_refuses(self, inputs):
        experts = _experts()
        _as_float64(experts[2])
        for deploy in (TeamInference, team_dtype, deploy_local_team,
                       lambda e: make_canary_set(e, inputs[0])):
            with pytest.raises(ValueError, match="disagree"):
                deploy(experts)
        with forbid_sockets(), pytest.raises(ValueError, match="disagree"):
            SimCluster(experts)

    def test_an_expert_needs_one_parameter_dtype(self):
        expert = _experts(n=1)[0]
        expert.parameters()[0].data = \
            expert.parameters()[0].data.astype(np.float64)
        with pytest.raises(ValueError, match="one dtype"):
            expert_dtype(expert)


class TestFloat64Models:
    def test_stay_float64_through_both_engines(self, inputs):
        x64, x32 = inputs
        expert = _as_float64(_experts(n=1)[0])
        assert expert_dtype(expert) == np.float64
        tape = expert_forward(expert, x32)
        compiled = expert_forward(expert, x32, engine="compiled")
        assert tape.probs.dtype == compiled.probs.dtype == np.float64
        assert compiled.probs.tobytes() == tape.probs.tobytes()
        assert compiled.entropy.tobytes() == tape.entropy.tobytes()
        # A float64 input reaches a float64 expert uncast.
        assert expert_forward(expert, x64).probs.tobytes() == \
            expert_forward(expert, x64, engine="compiled").probs.tobytes()
        assert expert_forward(expert, x64).probs.tobytes() != \
            tape.probs.tobytes()

    def test_one_program_per_expert_and_feature_shape(self, inputs):
        x64, x32 = inputs
        expert = _experts(n=1)[0]
        for x in (x64, x32, x64[:1], np.concatenate([x32, x32])):
            expert_forward(expert, x, engine="compiled")
        assert len(_COMPILED[expert]) == 1
        program = compiled_expert_for(expert, x64)
        assert program is compiled_expert_for(expert, x32)


class TestCanariesInTheTeamDtype:
    def test_make_canary_set_stores_the_team_dtype(self, inputs):
        canaries = make_canary_set(_experts(), inputs[0])
        assert canaries.x.dtype == np.float32
        assert canaries.golden[0].probs.dtype == np.float32

    def test_an_archive_with_promoted_inputs_still_passes(self, tmp_path,
                                                          inputs):
        # A canary set recorded before inputs were cast at the boundary:
        # float64 probe batch, goldens computed by promotion to float64.
        x64, _ = inputs
        experts = _experts()
        golden = {}
        with no_grad():
            for index, expert in enumerate(experts):
                expert.eval()
                probs, entropy = softmax_entropy(expert(Tensor(x64)).data)
                golden[index] = ExpertOutput(probs=probs, entropy=entropy)
        assert golden[1].probs.dtype == np.float64
        store = CheckpointStore(tmp_path)
        store.save_canary(CanarySet(x=x64, golden=golden))
        assert store.load_canary().x.dtype == np.float64
        assert store.load_canary(dtype=np.float32).x.dtype == np.float32
        with forbid_sockets(), SimCluster(
                experts, integrity=IntegrityConfig(), store=store) as cluster:
            outcomes = cluster.master.canary_probe()
        assert outcomes == {1: "pass", 2: "pass"}
