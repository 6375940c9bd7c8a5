"""The real TeamNet runtime over the simulated fabric: protocol
equivalence, degradation, crash/rejoin — all in-process, all fast."""

import time

import numpy as np
import pytest

from repro.core.inference import TeamInference
from repro.distributed import DegradationPolicy
from repro.distributed.teamnet_runtime import WorkerFailure
from repro.nn import MLP
from repro.testkit import FaultSchedule, LinkFaults, SimCluster, forbid_sockets
from repro.testkit.faults import REPLY


def make_team(k=4, in_dim=6, classes=5, seed=0):
    rng = np.random.default_rng(seed)
    experts = [MLP(in_dim, classes, depth=2, width=8,
                   rng=np.random.default_rng((seed, i))) for i in range(k)]
    x = rng.standard_normal((3, in_dim))
    return experts, x


class TestEquivalence:
    def test_sim_inference_matches_reference_exactly(self):
        experts, x = make_team()
        reference = TeamInference(experts)
        ref_preds, ref_winner = reference.predict_with_winner(x)
        with forbid_sockets(), SimCluster(experts) as cluster:
            preds, winner, stats = cluster.infer(x)
        assert preds.tobytes() == ref_preds.tobytes()
        assert winner.tobytes() == ref_winner.tobytes()
        assert stats.failures == 0
        assert cluster.surviving_team == list(range(len(experts)))

    def test_compiled_engine_matches_reference_exactly(self):
        """The whole wire path on engine="compiled" — master and workers
        forward through the traced executor — must still reproduce the
        tape reference byte for byte on the MLP expert zoo."""
        experts, x = make_team()
        reference = TeamInference(experts)
        ref_preds, ref_winner = reference.predict_with_winner(x)
        with forbid_sockets(), \
                SimCluster(experts, engine="compiled") as cluster:
            preds, winner, stats = cluster.infer(x)
        assert preds.tobytes() == ref_preds.tobytes()
        assert winner.tobytes() == ref_winner.tobytes()
        assert stats.failures == 0

    def test_repeated_inference_is_stable(self):
        experts, x = make_team()
        with SimCluster(experts) as cluster:
            first = cluster.predict(x)
            for _ in range(3):
                assert cluster.predict(x).tobytes() == first.tobytes()

    def test_benign_latency_does_not_change_answers(self):
        experts, x = make_team()
        schedule = FaultSchedule(seed=3,
                                 request=LinkFaults(latency=(0.01, 0.2)),
                                 reply=LinkFaults(latency=(0.01, 0.2)))
        ref_preds = TeamInference(experts).predict(x)
        start = time.monotonic()
        with SimCluster(experts, schedule, reply_timeout=5.0) as cluster:
            preds = cluster.predict(x)
            assert cluster.surviving_team == list(range(len(experts)))
            assert cluster.clock.now > 0.0  # latency happened, virtually
        assert preds.tobytes() == ref_preds.tobytes()
        assert time.monotonic() - start < 2.0


class TestDegradation:
    def test_all_replies_dropped_degrades_to_master_instantly(self):
        experts, x = make_team()
        schedule = FaultSchedule(seed=1, reply=LinkFaults(drop=1.0))
        start = time.monotonic()
        with SimCluster(experts, schedule, reply_timeout=30.0) as cluster:
            preds, winner, stats = cluster.infer(x)
            assert cluster.surviving_team == [0]
        # The 30-second deadline must burn virtual time, not real time.
        assert time.monotonic() - start < 5.0
        assert stats.failures == len(experts) - 1
        local = TeamInference(experts[:1])
        assert preds.tobytes() == local.predict(x).tobytes()
        assert np.all(winner == 0)

    def test_killed_worker_excluded_from_team(self):
        experts, x = make_team()
        schedule = FaultSchedule(seed=2, per_address={
            ("sim", 49152): {REPLY: LinkFaults(kill_after=0)}})
        with SimCluster(experts, schedule) as cluster:
            preds, _, stats = cluster.infer(x)
            survivors = cluster.surviving_team
        assert 1 not in survivors           # worker 1 listens on the first port
        assert survivors[0] == 0
        assert stats.failures >= 1
        reference = TeamInference([experts[i] for i in survivors])
        assert preds.tobytes() == reference.predict(x).tobytes()

    def test_strict_mode_raises_worker_failure(self):
        experts, x = make_team()
        schedule = FaultSchedule(seed=1, reply=LinkFaults(drop=1.0))
        with SimCluster(experts, schedule, degradation=DegradationPolicy(),
                        reply_timeout=2.0) as cluster:
            with pytest.raises(WorkerFailure):
                cluster.infer(x)


class TestCrashAndRejoin:
    def test_crash_then_restart_rejoins_team(self):
        experts, x = make_team()
        with SimCluster(experts) as cluster:
            cluster.infer(x)
            assert cluster.surviving_team == [0, 1, 2, 3]
            cluster.crash_worker(2)
            cluster.infer(x)
            assert 2 not in cluster.surviving_team
            cluster.restart_worker(2)
            preds, _, _ = cluster.infer(x)
            assert cluster.surviving_team == [0, 1, 2, 3]
        ref = TeamInference(experts)
        assert preds.tobytes() == ref.predict(x).tobytes()

    def test_crash_is_isolated_to_one_worker(self):
        experts, x = make_team(k=5)
        with SimCluster(experts) as cluster:
            cluster.crash_worker(4)
            cluster.infer(x)
            assert cluster.surviving_team == [0, 1, 2, 3]

    def test_worker_index_bounds(self):
        experts, _ = make_team()
        with SimCluster(experts) as cluster:
            with pytest.raises(IndexError):
                cluster.crash_worker(0)      # master is not a worker
            with pytest.raises(IndexError):
                cluster.crash_worker(len(experts))

    def test_team_needs_two_experts(self):
        experts, _ = make_team(k=1)
        with pytest.raises(ValueError):
            SimCluster(experts)


class TestIsolation:
    def test_full_cluster_lifecycle_opens_no_sockets(self):
        experts, x = make_team()
        with forbid_sockets():
            with SimCluster(experts) as cluster:
                cluster.infer(x)
                cluster.crash_worker(1)
                cluster.infer(x)
                cluster.restart_worker(1)
                cluster.infer(x)
