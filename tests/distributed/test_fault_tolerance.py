"""Tests for graceful degradation in the TeamNet socket runtime."""

import numpy as np
import pytest

from repro.core import TeamInference
from repro.distributed import (DegradationPolicy, WorkerFailure,
                               deploy_local_team)
from repro.nn import MLP

#: answer from whichever experts are up
DEGRADE = DegradationPolicy(min_quorum=1)


def make_experts(k=3):
    return [MLP(10, 3, depth=1, width=6, rng=np.random.default_rng(i))
            for i in range(k)]


class TestStrictMode:
    def test_dead_worker_raises(self, rng):
        experts = make_experts()
        master, workers = deploy_local_team(experts)
        try:
            workers[0].stop()
            x = rng.standard_normal((2, 10)).astype(np.float32)
            with pytest.raises((WorkerFailure, ConnectionError, OSError)):
                # The worker's listener is closed and its serve loop ends;
                # one of the next inferences must surface the failure.
                for _ in range(3):
                    master.infer(x)
        finally:
            master.close()
            for w in workers:
                w.stop()


class TestDegradedMode:
    def test_keeps_answering_after_worker_death(self, rng):
        experts = make_experts(3)
        master, workers = deploy_local_team(experts,
                                            degradation=DEGRADE,
                                            reply_timeout=2.0)
        try:
            x = rng.standard_normal((4, 10)).astype(np.float32)
            full_preds, _, _ = master.infer(x)
            assert master.live_team_size == 3
            workers[0].stop()  # kill worker 1 (expert index 1)
            # Inference must still answer, possibly taking a retry for the
            # failure to be observed.
            preds = None
            for _ in range(3):
                preds, winner, _ = master.infer(x)
            assert preds is not None and preds.shape == (4,)
            assert master.live_team_size < 3
            assert 1 in master.failed_workers
            # Winners only come from surviving experts {0, 2}.
            assert set(np.unique(winner)) <= {0, 2}
        finally:
            master.close()
            for w in workers:
                w.stop()

    def test_degraded_answers_match_surviving_subteam(self, rng):
        experts = make_experts(3)
        master, workers = deploy_local_team(experts,
                                            degradation=DEGRADE,
                                            reply_timeout=2.0)
        try:
            x = rng.standard_normal((5, 10)).astype(np.float32)
            workers[0].stop()
            for _ in range(3):
                preds, _, _ = master.infer(x)
            surviving = TeamInference([experts[0], experts[2]])
            np.testing.assert_array_equal(preds, surviving.predict(x))
        finally:
            master.close()
            for w in workers:
                w.stop()

    def test_failed_worker_not_contacted_again(self, rng):
        experts = make_experts(3)
        master, workers = deploy_local_team(experts,
                                            degradation=DEGRADE,
                                            reply_timeout=2.0)
        try:
            x = rng.standard_normal((1, 10)).astype(np.float32)
            workers[1].stop()
            for _ in range(3):
                master.infer(x)
            assert 2 in master.failed_workers
            # Subsequent inference only talks to the one live worker.
            _, _, stats = master.infer(x)
            assert stats.messages_sent <= 1
        finally:
            master.close()
            for w in workers:
                w.stop()
