"""The resilience control plane: breaker state machine, failure
detector, hedged gathers, heartbeats and the quorum-aware degradation
policy — the distributed behaviours all exercised deterministically on
the simulated fabric (no real sockets)."""

import threading

import numpy as np
import pytest

from repro.core.inference import TeamInference
from repro.distributed import (CircuitBreaker, DegradationPolicy,
                               LatencyTracker, QuorumError, ResilienceConfig,
                               SuspicionTracker, TeamNetMaster, WorkerFailure)
from repro.edge import resilience_table
from repro.nn import MLP
from repro.testkit import FaultSchedule, LinkFaults, SimCluster, forbid_sockets
from repro.testkit.faults import REPLY


def make_team(k=4, in_dim=6, classes=5, seed=0):
    rng = np.random.default_rng(seed)
    experts = [MLP(in_dim, classes, depth=2, width=8,
                   rng=np.random.default_rng((seed, i))) for i in range(k)]
    x = rng.standard_normal((3, in_dim))
    return experts, x


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def test_trips_open_at_failure_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=1.0,
                                 reset_timeout_max=4.0, clock=clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_open_window_promotes_to_half_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 reset_timeout_max=4.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.t = 0.99
        assert not breaker.allow()
        clock.t = 1.0
        assert breaker.state == "half-open"
        assert breaker.allow()

    def test_failed_probe_reopens_with_doubled_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 reset_timeout_max=4.0, clock=clock)
        breaker.record_failure()          # open, window 1
        clock.t = 1.0
        assert breaker.state == "half-open"
        breaker.record_failure()          # probe failed: open, window 2
        assert breaker.state == "open"
        assert breaker.open_timeout_s == pytest.approx(2.0)
        clock.t = 3.0
        breaker.record_failure()          # window 4 (the cap)
        clock.t = 7.0
        breaker.record_failure()          # capped at 4, not 8
        assert breaker.open_timeout_s == pytest.approx(4.0)

    def test_success_closes_and_resets(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 reset_timeout_max=4.0, clock=clock)
        breaker.record_failure()
        clock.t = 1.0
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0
        breaker.record_failure()          # fresh trip starts at reset_timeout
        assert breaker.open_timeout_s == pytest.approx(1.0)

    def test_zero_reset_timeout_probes_immediately(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.0,
                                 reset_timeout_max=0.0, clock=clock)
        breaker.record_failure()
        assert breaker.allow()  # open window of 0: instantly half-open


class TestSuspicionTracker:
    def test_misses_raise_score_to_suspect(self):
        detector = SuspicionTracker(threshold=2.0)
        assert not detector.suspect
        detector.miss()
        assert not detector.suspect
        detector.miss()
        assert detector.suspect
        assert detector.misses == 2

    def test_success_decays_score(self):
        detector = SuspicionTracker(decay=0.5, threshold=2.0)
        detector.miss()
        detector.miss()
        detector.observe()
        assert detector.score == pytest.approx(1.0)
        assert not detector.suspect

    def test_latency_ewma(self):
        detector = SuspicionTracker(alpha=0.2)
        assert detector.ewma_latency_s is None
        detector.observe(0.1)
        assert detector.ewma_latency_s == pytest.approx(0.1)
        detector.observe(0.2)
        assert detector.ewma_latency_s == pytest.approx(0.12)

    def test_heartbeat_observe_leaves_ewma_untouched(self):
        detector = SuspicionTracker()
        detector.observe(0.1)
        detector.observe()  # pong: decay only
        assert detector.ewma_latency_s == pytest.approx(0.1)


class TestLatencyTracker:
    def test_quantile_requires_samples(self):
        tracker = LatencyTracker(window=4)
        with pytest.raises(ValueError):
            tracker.quantile(0.5)

    def test_window_evicts_old_samples(self):
        tracker = LatencyTracker(window=3)
        for value in (10.0, 1.0, 1.0, 1.0):
            tracker.add(value)
        assert len(tracker) == 3
        assert tracker.quantile(0.5) == pytest.approx(1.0)


class TestDegradationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DegradationPolicy(min_quorum=0)
        with pytest.raises(ValueError):
            DegradationPolicy(on_violation="explode")
        with pytest.raises(ValueError):
            DegradationPolicy(max_entropy=-1.0)

    def test_violations(self):
        policy = DegradationPolicy(min_quorum=3, max_entropy=0.5)
        assert policy.violations(3, 0.4) == []
        assert len(policy.violations(2, 0.6)) == 2
        assert any("quorum" in v for v in policy.violations(1, None))

    def test_whole_team_is_the_default(self):
        policy = DegradationPolicy()
        assert policy.min_quorum is None
        # No floor to breach: a missing peer fails the inference instead
        # (see TestDegradationWiring), and an expired shed is not missing.
        assert policy.violations(1, None) == []
        assert policy.violations(1, 0.6) == []
        assert DegradationPolicy(max_entropy=0.5).violations(1, 0.6)


class TestBreakerOnWire:
    def test_open_breaker_means_zero_broadcast_bytes(self):
        """Once a worker's breaker trips open, it receives nothing — no
        broadcasts, no reconnect dials — until the open window elapses."""
        experts, x = make_team(k=3)
        flappy = ("sim", 49152)  # worker 1's listener
        schedule = FaultSchedule(seed=5, per_address={
            flappy: {REPLY: LinkFaults(drop=1.0)}})
        resilience = ResilienceConfig(failure_threshold=2,
                                      reset_timeout=1000.0,
                                      reset_timeout_max=1000.0)
        with forbid_sockets(), \
                SimCluster(experts, schedule, reply_timeout=0.5,
                           resilience=resilience) as cluster:
            peer = cluster.master._peers[0]
            for _ in range(4):
                cluster.infer(x)
                if peer.breaker.state == "open":
                    break
            assert peer.breaker.state == "open"

            def worker_rx_bytes():
                listener = cluster.workers[0]._server.listener
                return sum(ep.stats.bytes_received
                           for ep in listener._accepted)

            received = worker_rx_bytes()
            dials = cluster.network.connections_opened
            for _ in range(3):
                preds, winner, stats = cluster.infer(x)
            assert worker_rx_bytes() == received
            assert cluster.network.connections_opened == dials
            assert stats.messages_sent == 1  # only the healthy worker
            # The team still answers from the survivors.
            assert cluster.surviving_team == [0, 2]
            reference = TeamInference([experts[0], experts[2]])
            assert preds.tobytes() == reference.predict(x).tobytes()

    def test_successful_probe_readmits_worker(self):
        """After the (zero-length, in sim) open window, a half-open probe
        that succeeds closes the breaker and the worker rejoins."""
        experts, x = make_team(k=3)
        resilience = ResilienceConfig(failure_threshold=1, reset_timeout=0.0,
                                      reset_timeout_max=0.0)
        with SimCluster(experts, resilience=resilience) as cluster:
            cluster.crash_worker(1)
            cluster.infer(x)
            peer = cluster.master._peers[0]
            assert peer.breaker.trips >= 1
            cluster.restart_worker(1)
            cluster.infer(x)  # immediate half-open probe: rejoin
            assert cluster.surviving_team == [0, 1, 2]
            assert peer.breaker.state == "closed"


def straggler_setup(k=4, straggler=1, fast=(0.008, 0.012),
                    slow=(0.10, 0.101), seed=7, **overrides):
    """A team with one scripted straggler at ~10x the median reply
    latency; returns (experts, x, schedule, resilience config)."""
    experts, x = make_team(k=k)
    address = ("sim", 49152 + straggler - 1)
    schedule = FaultSchedule(seed=seed, reply=LinkFaults(latency=fast),
                             per_address={address:
                                          {REPLY: LinkFaults(latency=slow)}})
    config = dict(hedge_min_samples=6, failure_threshold=10 ** 6,
                  reset_timeout=0.0)
    config.update(overrides)
    return experts, x, schedule, ResilienceConfig(**config)


class TestHedgedGather:
    def test_suspected_straggler_is_hedged(self):
        experts, x, schedule, resilience = straggler_setup()
        with forbid_sockets(), \
                SimCluster(experts, schedule, reply_timeout=5.0,
                           resilience=resilience) as cluster:
            for _ in range(2):  # warm up the latency window and EWMAs
                _, _, stats = cluster.infer(x)
                assert not stats.hedged  # hedging not armed yet
            start = cluster.clock.now
            preds, winner, stats = cluster.infer(x)
            elapsed = cluster.clock.now - start
            assert stats.hedged
            assert stats.hedged_workers == [1]
            assert stats.participants == 3
            assert 0 < stats.hedge_delay_s < 0.1
            # The gather stopped at the hedge delay, not the straggler's
            # scripted 100ms (nor the 5s deadline).
            assert elapsed < 0.1
            assert 1 not in cluster.surviving_team
            assert cluster.master.worker_health[1].hedges == 1
            reference = TeamInference(
                [experts[i] for i in cluster.surviving_team])
            assert preds.tobytes() == reference.predict(x).tobytes()
            assert set(np.unique(winner)) <= set(cluster.surviving_team)

    def test_hedging_never_cuts_below_quorum(self):
        """If dropping the suspects would leave fewer than min_quorum
        participants, the master waits out the straggler instead."""
        experts, x, schedule, resilience = straggler_setup()
        policy = DegradationPolicy(min_quorum=4)
        with SimCluster(experts, schedule, reply_timeout=5.0,
                        resilience=resilience,
                        degradation=policy) as cluster:
            for _ in range(3):
                _, _, stats = cluster.infer(x)
            assert not stats.hedged
            assert stats.participants == 4

    def test_no_hedging_without_degradation(self):
        """A master that may not degrade needs every peer's answer, so it
        waits out the straggler instead of failing it at the hedge delay
        (which would close the peer and fail every later request)."""
        experts, x, schedule, resilience = straggler_setup()
        with forbid_sockets(), \
                SimCluster(experts, schedule, degradation=DegradationPolicy(),
                           reply_timeout=5.0,
                           resilience=resilience) as cluster:
            for _ in range(6):
                preds, _, stats = cluster.infer(x)
                assert not stats.hedged
                assert stats.participants == 4
            assert cluster.surviving_team == [0, 1, 2, 3]
            assert cluster.master.worker_health[1].hedges == 0
            reference = TeamInference(experts)
            assert preds.tobytes() == reference.predict(x).tobytes()

    def test_hedging_disabled_waits_for_straggler(self):
        experts, x, schedule, resilience = straggler_setup(hedging=False)
        with SimCluster(experts, schedule, reply_timeout=5.0,
                        resilience=resilience) as cluster:
            for _ in range(3):
                _, _, stats = cluster.infer(x)
            assert not stats.hedged
            assert stats.participants == 4


class TestHeartbeat:
    def test_pongs_update_detector(self):
        experts, x = make_team(k=3)
        with forbid_sockets(), SimCluster(experts) as cluster:
            rtts = cluster.heartbeat()
            assert set(rtts) == {1, 2}
            assert all(rtt is not None for rtt in rtts.values())
            for health in cluster.master.worker_health.values():
                assert health.detector.observations == 1
            assert cluster.master.heartbeat_traffic.messages_sent == 2

    def test_heartbeat_readmits_restarted_worker(self):
        experts, x = make_team(k=3)
        resilience = ResilienceConfig(failure_threshold=1, reset_timeout=0.0,
                                      reset_timeout_max=0.0)
        with SimCluster(experts, resilience=resilience) as cluster:
            cluster.crash_worker(1)
            cluster.infer(x)
            assert 1 in cluster.master.failed_workers
            score_after_miss = cluster.master.worker_health[1].suspicion_score
            assert score_after_miss > 0
            cluster.restart_worker(1)
            rtts = cluster.heartbeat()  # cheap probe path, no broadcast
            assert rtts[1] is not None
            assert 1 not in cluster.master.failed_workers
            assert cluster.master.worker_health[1].suspicion_score \
                < score_after_miss
            cluster.infer(x)
            assert cluster.surviving_team == [0, 1, 2]

    def test_missed_pong_counts_as_failure(self):
        experts, x = make_team(k=3)
        schedule = FaultSchedule(seed=9, per_address={
            ("sim", 49152): {REPLY: LinkFaults(drop=1.0)}})
        with SimCluster(experts, schedule) as cluster:
            rtts = cluster.heartbeat(timeout=0.2)
            assert rtts[1] is None
            assert rtts[2] is not None
            assert cluster.master.worker_health[1].failures == 1
            assert cluster.master.worker_health[1].detector.misses == 1


class TestDegradationWiring:
    def test_quorum_violation_raises_in_strict_policy(self):
        experts, x = make_team(k=3)
        schedule = FaultSchedule(seed=1, reply=LinkFaults(drop=1.0))
        policy = DegradationPolicy(min_quorum=2, on_violation="raise")
        with SimCluster(experts, schedule, reply_timeout=1.0,
                        degradation=policy) as cluster:
            with pytest.raises(QuorumError, match="quorum"):
                cluster.infer(x)

    def test_quorum_violation_flags_in_degraded_policy(self):
        experts, x = make_team(k=3)
        schedule = FaultSchedule(seed=1, reply=LinkFaults(drop=1.0))
        policy = DegradationPolicy(min_quorum=2, on_violation="flag")
        with SimCluster(experts, schedule, reply_timeout=1.0,
                        degradation=policy) as cluster:
            preds, _, stats = cluster.infer(x)
            assert stats.degraded
            assert stats.participants == 1
            assert any("quorum" in v for v in stats.violations)
            assert preds.shape == (len(x),)  # still answered

    def test_entropy_ceiling_flags_uncertain_answers(self):
        experts, x = make_team(k=3)
        policy = DegradationPolicy(min_quorum=1, max_entropy=1e-9)
        with SimCluster(experts, degradation=policy) as cluster:
            _, _, stats = cluster.infer(x)
            assert any("entropy" in v for v in stats.violations)
            assert not stats.degraded  # full team answered — just unsure

    @pytest.mark.parametrize("explicit", [True, False],
                             ids=["DegradationPolicy()", "master-default"])
    def test_whole_team_policy_fails_before_any_frame_is_sent(
            self, explicit):
        """``DegradationPolicy()`` and a master built without a policy
        agree: once a worker is known down, an inference raises
        WorkerFailure before a single frame goes out."""
        experts, x = make_team(k=3)
        whole_team = DegradationPolicy()
        with forbid_sockets(), \
                SimCluster(experts, degradation=whole_team) as cluster:
            master = cluster.master
            if not explicit:
                master = TeamNetMaster(
                    experts[0], [w.address for w in cluster.workers],
                    reply_timeout=1.0, transport=cluster.network.transport)
            try:
                cluster.crash_worker(2)
                with pytest.raises(WorkerFailure):
                    master.infer(x)         # the failure is discovered
                assert master.failed_workers == [2]
                live = master._peers[0].sock.stats
                sent = live.messages_sent
                with pytest.raises(WorkerFailure, match="down"):
                    master.infer(x)
                assert live.messages_sent == sent
            finally:
                if master is not cluster.master:
                    master.close()

    def test_healthy_full_team_has_no_violations(self):
        experts, x = make_team(k=3)
        with SimCluster(experts) as cluster:
            _, _, stats = cluster.infer(x)
            assert stats.participants == 3
            assert not stats.degraded
            assert stats.violations == []


class TestSnapshot:
    def test_snapshot_and_table_surface_breaker_state(self):
        experts, x = make_team(k=3)
        schedule = FaultSchedule(seed=5, per_address={
            ("sim", 49152): {REPLY: LinkFaults(drop=1.0)}})
        resilience = ResilienceConfig(failure_threshold=1,
                                      reset_timeout=1000.0,
                                      reset_timeout_max=1000.0)
        with SimCluster(experts, schedule, reply_timeout=0.5,
                        resilience=resilience) as cluster:
            cluster.infer(x)
            snapshot = cluster.master.resilience_snapshot()
            assert snapshot[1].breaker_state == "open"
            assert not snapshot[1].alive
            assert snapshot[1].failures == 1
            assert snapshot[2].breaker_state == "closed"
            table = resilience_table(snapshot)
            assert "worker" in table and "open" in table and "closed" in table
            assert len(table.splitlines()) == 4  # header + rule + 2 workers

class TestAllWorkersDead:
    """The worst case: the master is the only survivor.  The control
    plane must stay well-formed — heartbeats answer (all ``None``)
    without leaking probe threads, inference degrades to master-only,
    and the snapshot reports every peer as a suspect corpse."""

    def dead_cluster(self, resilience):
        experts, x = make_team(k=3)
        cluster = SimCluster(experts, resilience=resilience)
        cluster.infer(x)  # wire everyone up first
        for index in (1, 2):
            cluster.crash_worker(index)
        return cluster, x

    def test_heartbeat_answers_and_leaks_no_threads(self):
        resilience = ResilienceConfig(failure_threshold=1, reset_timeout=0.0,
                                      reset_timeout_max=0.0)
        with forbid_sockets():
            cluster, _ = self.dead_cluster(resilience)
            with cluster:
                cluster.heartbeat(timeout=0.2)  # records the two deaths
                baseline = threading.active_count()
                for _ in range(5):
                    rtts = cluster.heartbeat(timeout=0.2)
                    assert rtts == {1: None, 2: None}
                # Dead peers must not accumulate probe threads.
                assert threading.active_count() <= baseline
                assert cluster.master.live_team_size == 1
                assert cluster.master.failed_workers == [1, 2]

    def test_all_suspect_snapshot_is_well_formed(self):
        resilience = ResilienceConfig(failure_threshold=1,
                                      reset_timeout=1000.0,
                                      reset_timeout_max=1000.0,
                                      suspicion_threshold=1.0)
        with forbid_sockets():
            cluster, x = self.dead_cluster(resilience)
            with cluster:
                preds, _, stats = cluster.infer(x)  # master-only answer
                assert preds.shape == (len(x),)
                assert stats.degraded and stats.participants == 1
                assert cluster.surviving_team == [0]
                snapshot = cluster.master.resilience_snapshot()
                assert set(snapshot) == {1, 2}
                for record in snapshot.values():
                    assert not record.alive
                    assert record.suspect
                    assert record.breaker_state == "open"
                    assert record.failures >= 1
                    assert record.redeployments == 0
                table = resilience_table(snapshot)
                assert len(table.splitlines()) == 4  # header + rule + 2 rows
