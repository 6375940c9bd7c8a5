"""Tests for the TeamNet socket runtime (master/worker protocol)."""

import socket
import warnings

import numpy as np
import pytest

from repro.comm.transport import TcpTransport
from repro.core import TeamInference
from repro.distributed import ExpertWorker, deploy_local_team
from repro.nn import MLP, blas


@pytest.fixture
def experts():
    return [MLP(16, 4, depth=1, width=8, rng=np.random.default_rng(i))
            for i in range(3)]


@pytest.fixture
def team(experts):
    master, workers = deploy_local_team(experts)
    yield master, workers, experts
    master.close()
    for worker in workers:
        worker.stop()


class TestProtocol:
    def test_matches_local_inference(self, team, rng):
        master, _, experts = team
        x = rng.standard_normal((8, 16))
        preds, winner, _ = master.infer(x)
        local = TeamInference(experts)
        expected_preds, expected_winner = local.predict_with_winner(x)
        np.testing.assert_array_equal(preds, expected_preds)
        np.testing.assert_array_equal(winner, expected_winner)

    def test_message_pattern_is_two_per_worker(self, team, rng):
        master, _, _ = team
        _, _, stats = master.infer(rng.standard_normal((4, 16)))
        # One broadcast out + one result back per worker.
        assert stats.messages_sent == 2
        assert stats.messages_received == 2

    def test_repeated_inferences(self, team, rng):
        master, _, experts = team
        local = TeamInference(experts)
        for _ in range(5):
            x = rng.standard_normal((2, 16))
            np.testing.assert_array_equal(master.predict(x),
                                          local.predict(x))

    def test_single_sample(self, team, rng):
        master, _, _ = team
        preds, winner, _ = master.infer(rng.standard_normal((1, 16)))
        assert preds.shape == (1,) and winner.shape == (1,)

    def test_team_size(self, team):
        master, workers, _ = team
        assert master.team_size == 3
        assert len(workers) == 2


class TestDeployment:
    def test_needs_two_experts(self, rng):
        with pytest.raises(ValueError):
            deploy_local_team([MLP(4, 2, depth=1, width=4, rng=rng)])

    def test_workers_listen_on_distinct_ports(self, team):
        _, workers, _ = team
        ports = {w.address[1] for w in workers}
        assert len(ports) == len(workers)

    def test_two_node_team(self, rng):
        experts = [MLP(8, 3, depth=1, width=4,
                       rng=np.random.default_rng(i)) for i in range(2)]
        master, workers = deploy_local_team(experts)
        try:
            x = rng.standard_normal((3, 8))
            np.testing.assert_array_equal(
                master.predict(x), TeamInference(experts).predict(x))
        finally:
            master.close()
            for w in workers:
                w.stop()


def _teardown(master, workers):
    master.close()
    for worker in workers:
        worker.stop()


def _listening(address) -> bool:
    try:
        socket.create_connection(address, timeout=1.0).close()
    except OSError:
        return False
    return True


class _RefusingTransport(TcpTransport):
    """Listens for real, but every dial fails: the master cannot be
    built after the workers have started."""

    def connect(self, host, port, **kwargs):
        raise ConnectionError(f"dial {host}:{port} refused")


class TestFailedDeploy:
    def test_started_workers_are_stopped(self, experts, monkeypatch):
        before = blas.get_num_threads()
        started = []
        real_start = ExpertWorker.start

        def tracking_start(worker):
            real_start(worker)
            started.append(worker)

        monkeypatch.setattr(ExpertWorker, "start", tracking_start)
        with pytest.raises(ConnectionError, match="refused"):
            deploy_local_team(experts, transport=_RefusingTransport())
        assert len(started) == len(experts) - 1
        assert not any(_listening(w.address) for w in started)
        assert blas.get_num_threads() == before


@pytest.fixture
def default_threads():
    """The library's thread count before any team exists; every test
    below must leave it exactly there."""
    before = blas.get_num_threads()
    if before is None:
        pytest.skip("no OpenBLAS thread control in this numpy build")
    yield before
    assert blas.get_num_threads() == before


class TestBlasCap:
    def test_one_thread_while_a_team_is_live(self, experts, rng,
                                             default_threads):
        master, workers = deploy_local_team(experts)
        try:
            assert blas.get_num_threads() == 1
            x = rng.standard_normal((4, 16))
            np.testing.assert_array_equal(master.predict(x),
                                          TeamInference(experts).predict(x))
        finally:
            _teardown(master, workers)
        assert blas.get_num_threads() == default_threads

    def test_overlapping_teams_hold_until_the_last_worker(self, experts,
                                                          default_threads):
        first = deploy_local_team(experts)
        second = deploy_local_team(experts)
        _teardown(*first)
        assert blas.get_num_threads() == 1
        *rest, last = second[1]
        _teardown(second[0], rest)
        assert blas.get_num_threads() == 1
        last.stop()
        assert blas.get_num_threads() == default_threads

    def test_reboot_cycle_keeps_the_count_balanced(self, experts, rng,
                                                   default_threads):
        master, workers = deploy_local_team(experts)
        try:
            for worker in workers:
                worker.stop()
                worker.stop()        # a second stop releases nothing
            assert blas.get_num_threads() == default_threads
            for worker in workers:
                worker.start()
                worker.start()       # nor does a second start hold twice
            assert blas.get_num_threads() == 1
            workers[0].stop()
            workers[0].start()
            assert blas.get_num_threads() == 1
        finally:
            _teardown(master, workers)
        assert blas.get_num_threads() == default_threads

    def test_without_thread_control_deploy_warns_once(self, experts, rng,
                                                      monkeypatch):
        monkeypatch.setattr(blas, "_lookup", lambda: None)
        monkeypatch.setattr(blas, "_api", None)
        x = rng.standard_normal((4, 16))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                master, workers = deploy_local_team(experts)
                try:
                    np.testing.assert_array_equal(
                        master.predict(x), TeamInference(experts).predict(x))
                finally:
                    _teardown(master, workers)
        assert blas.get_num_threads() is None
        assert sum("OpenBLAS" in str(w.message) for w in caught) == 1
