"""Overload control: deadline budgets, AIMD admission, retry budgets,
brownout, and the serving/worker shed paths.

The contract family under test: expired work is *shed*, never computed
and never booked as a failure; admission adapts to observed latency
instead of a static bound; every retry mechanism shares one token
bucket; and sustained pressure degrades service deliberately (hedging
off, quorum floor, linger off) and recovers the same way.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.comm import protocol
from repro.distributed.overload import (AdmissionController,
                                        BrownoutController, DeadlineExpired,
                                        OverloadConfig, RetryBudget,
                                        remaining_budget, BROWNOUT_LEVELS)
from repro.distributed.resilience import (CircuitBreaker, DegradationPolicy,
                                          QuorumError, ResilienceConfig)
from repro.distributed.serving import (ServerOverloaded, ServeFuture,
                                       TeamNetServer)
from repro.distributed.teamnet_runtime import ExpertWorker, InferenceStats
from repro.nn import MLP
from repro.testkit import SimCluster, forbid_sockets
from repro.testkit.faults import REPLY, FaultSchedule, LinkFaults


class FakeClock:
    """A manually stepped monotonic clock."""

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# --------------------------------------------------------------- budgets
class TestRemainingBudget:
    def test_none_budget_passes_through(self):
        assert remaining_budget(None, 10.0, 20.0) is None

    def test_elapsed_time_is_charged(self):
        assert remaining_budget(0.5, 10.0, 10.2) == pytest.approx(0.3)

    def test_missing_sent_at_charges_nothing(self):
        assert remaining_budget(0.5, None, 99.0) == pytest.approx(0.5)

    def test_clock_skew_cannot_extend_a_budget(self):
        # Receiver clock behind the sender's: elapsed clamps at zero.
        assert remaining_budget(0.5, 10.0, 9.0) == pytest.approx(0.5)

    def test_overspent_budget_goes_negative(self):
        assert remaining_budget(0.1, 0.0, 5.0) < 0


class TestOverloadConfig:
    def test_defaults_validate(self):
        OverloadConfig()

    @pytest.mark.parametrize("kwargs", [
        {"target_latency_s": 0.0},
        {"min_limit": 0},
        {"initial_limit": 512},              # > max_limit
        {"multiplicative_decrease": 1.0},
        {"brownout_enter": 0.3, "brownout_exit": 0.3},
        {"brownout_dwell": 0},
        {"retry_capacity": -1.0},
    ])
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            OverloadConfig(**kwargs)


# ------------------------------------------------------------- admission
class TestAdmissionController:
    def test_sheds_at_the_limit_and_releases_slots(self):
        limiter = AdmissionController(OverloadConfig(initial_limit=2,
                                                     min_limit=1))
        assert limiter.try_acquire() and limiter.try_acquire()
        assert not limiter.try_acquire()
        assert limiter.shed == 1
        limiter.release()
        assert limiter.try_acquire()
        assert limiter.admitted == 3

    def test_aimd_grows_under_target_and_halves_over(self):
        config = OverloadConfig(target_latency_s=0.05, initial_limit=16)
        limiter = AdmissionController(config)
        limiter.on_sample(0.01)
        assert limiter.limit == 17
        limiter.on_sample(0.2)
        assert limiter.limit == 8           # floor(17 * 0.5)
        assert limiter.increases == 1 and limiter.decreases == 1

    def test_limit_stays_within_bounds(self):
        config = OverloadConfig(min_limit=2, initial_limit=4, max_limit=6)
        limiter = AdmissionController(config)
        for _ in range(20):
            limiter.on_sample(1.0)
        assert limiter.limit == 2
        for _ in range(20):
            limiter.on_sample(0.0)
        assert limiter.limit == 6

    def test_pressure_tracks_over_target_fraction(self):
        limiter = AdmissionController(OverloadConfig(pressure_alpha=0.5))
        for _ in range(10):
            limiter.on_sample(1.0)
        assert limiter.pressure > 0.9
        for _ in range(10):
            limiter.on_sample(0.0)
        assert limiter.pressure < 0.1

    def test_snapshot_carries_the_counters(self):
        limiter = AdmissionController()
        limiter.try_acquire()
        limiter.on_sample(0.0)
        snap = limiter.snapshot()
        assert snap["outstanding"] == 1
        assert snap["admitted"] == 1
        assert snap["samples"] == 1


# ---------------------------------------------------------- retry budget
class TestRetryBudget:
    def test_spends_until_dry_then_denies(self):
        clock = FakeClock()
        budget = RetryBudget(capacity=2.0, refill_rate=0.0, clock=clock)
        assert budget.try_spend() and budget.try_spend()
        assert not budget.try_spend()
        assert budget.spent == 2 and budget.denied == 1

    def test_refills_with_time_up_to_capacity(self):
        clock = FakeClock()
        budget = RetryBudget(capacity=4.0, refill_rate=1.0, clock=clock)
        for _ in range(4):
            assert budget.try_spend()
        assert not budget.try_spend()
        clock.advance(2.0)
        assert budget.available() == pytest.approx(2.0)
        assert budget.try_spend()
        clock.advance(100.0)
        assert budget.available() == pytest.approx(4.0)

    def test_from_config(self):
        config = OverloadConfig(retry_capacity=3.0, retry_refill_rate=0.25)
        budget = RetryBudget.from_config(config, clock=FakeClock())
        assert budget.capacity == 3.0
        assert budget.refill_rate == 0.25


# -------------------------------------------------------------- brownout
class TestBrownoutController:
    def test_dwell_counted_escalation_and_recovery(self):
        config = OverloadConfig(brownout_dwell=3)
        brownout = BrownoutController(config, clock=FakeClock())
        assert brownout.observe(0.9) is None
        assert brownout.observe(0.9) is None
        assert brownout.observe(0.9) == (0, 1)
        assert brownout.level_name == "hedge-off"
        for _ in range(2):
            assert brownout.observe(0.1) is None
        assert brownout.observe(0.1) == (1, 0)
        assert brownout.level_name == "normal"
        assert brownout.escalations == 1 and brownout.recoveries == 1

    def test_hysteresis_band_resets_both_counters(self):
        config = OverloadConfig(brownout_dwell=2, brownout_enter=0.7,
                                brownout_exit=0.3)
        brownout = BrownoutController(config, clock=FakeClock())
        brownout.observe(0.9)
        brownout.observe(0.5)               # in the dead band: resets
        brownout.observe(0.9)
        assert brownout.level == 0          # dwell never reached
        assert brownout.observe(0.9) == (0, 1)

    def test_ladder_is_bounded_and_recovers_in_order(self):
        config = OverloadConfig(brownout_dwell=1)
        clock = FakeClock()
        brownout = BrownoutController(config, clock=clock)
        for _ in range(10):
            clock.advance(1.0)
            brownout.observe(0.99)
        assert brownout.level == len(BROWNOUT_LEVELS) - 1
        names = [BROWNOUT_LEVELS[to] for _, _, to, _ in
                 brownout.transitions]
        assert names == ["hedge-off", "quorum-min", "linger-off"]
        for _ in range(10):
            brownout.observe(0.0)
        assert brownout.level == 0
        recovery = [(f, t) for _, f, t, _ in brownout.transitions[3:]]
        assert recovery == [(3, 2), (2, 1), (1, 0)]

    def test_transitions_record_time_and_pressure(self):
        clock = FakeClock(5.0)
        brownout = BrownoutController(OverloadConfig(brownout_dwell=1),
                                      clock=clock)
        brownout.observe(0.95)
        assert brownout.transitions == [(5.0, 0, 1, 0.95)]

    def test_each_rung_says_what_a_batch_may_do(self):
        brownout = BrownoutController(OverloadConfig(brownout_dwell=1),
                                      clock=FakeClock())
        floor3 = DegradationPolicy(min_quorum=3, max_entropy=0.5)
        whole = DegradationPolicy()
        seen = []
        for rung in range(len(BROWNOUT_LEVELS)):
            assert brownout.level == rung
            hedge, policy = brownout.allowance(floor3)
            seen.append((hedge, policy.min_quorum,
                         brownout.allowance(whole)[1].min_quorum,
                         brownout.linger_s(0.01)))
            assert policy.max_entropy == 0.5
            brownout.observe(1.0)
        assert seen == [(True, 3, None, 0.01), (False, 3, None, 0.01),
                        (False, 1, None, 0.01), (False, 1, None, 0.0)]
        assert floor3.min_quorum == 3   # the configured policy is untouched


# --------------------------------------------------------- breaker jitter
class TestBreakerJitter:
    def _trip(self, breaker, n=1):
        for _ in range(n):
            breaker.record_failure()

    def test_no_jitter_keeps_exact_doubling(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 reset_timeout_max=8.0, clock=clock)
        expected = [1.0, 2.0, 4.0, 8.0, 8.0]
        for want in expected:
            self._trip(breaker)
            assert breaker.open_timeout_s == pytest.approx(want)
            clock.advance(want)

    def test_jittered_window_is_bounded_and_deterministic(self):
        config = ResilienceConfig(backoff_jitter=0.25, jitter_seed=7)
        windows = []
        for _ in range(2):
            clock = FakeClock()
            breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                     reset_timeout_max=60.0, clock=clock,
                                     jitter=config.backoff_jitter,
                                     rng=config.breaker_rng(3))
            run = []
            for nominal in [1.0, 2.0, 4.0]:
                self._trip(breaker)
                window = breaker.open_timeout_s
                assert (nominal * 0.75 <= window <= nominal * 1.25)
                run.append(window)
                clock.advance(window + 1e-9)
                assert breaker.state == "half-open"
            windows.append(run)
        # Same (seed, peer) stream: byte-identical backoff schedules.
        assert windows[0] == windows[1]

    def test_distinct_peers_get_distinct_streams(self):
        config = ResilienceConfig(backoff_jitter=0.25, jitter_seed=7)

        def schedule(peer):
            breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                     reset_timeout_max=60.0,
                                     clock=FakeClock(),
                                     jitter=config.backoff_jitter,
                                     rng=config.breaker_rng(peer))
            self._trip(breaker)
            return breaker.open_timeout_s

        assert schedule(1) != schedule(2)

    def test_success_resets_the_backoff(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 reset_timeout_max=8.0, clock=clock)
        self._trip(breaker)
        clock.advance(1.0)
        self._trip(breaker)
        assert breaker.open_timeout_s == pytest.approx(2.0)
        clock.advance(2.0)
        breaker.record_success()
        self._trip(breaker)
        assert breaker.open_timeout_s == pytest.approx(1.0)


# ------------------------------------------------- serving deadline edges
class StubMaster:
    """The minimal master surface ``TeamNetServer`` drives, with hooks to
    advance a fake clock inside ``_begin``/``_finish`` — which is how the
    tests place deadline expiry 'while queued' vs. 'in flight'."""

    def __init__(self, clock, n_classes=4):
        self.engine = "tape"
        self.expert = MLP(3, n_classes, depth=1, width=4,
                          rng=np.random.default_rng(0))
        self.degradation = DegradationPolicy()
        self.begin_calls = []
        self.on_begin = None
        self.on_finish = None
        self._clock = clock

    def _begin(self, x, segments=None, deadline_budget_s=None,
               segment_budgets_s=None, hedge=True, degradation=None):
        self.begin_calls.append({"rows": len(x), "segments": segments,
                                 "deadline_budget_s": deadline_budget_s,
                                 "segment_budgets_s": segment_budgets_s})
        if self.on_begin is not None:
            self.on_begin()
        # The server runs its local forward on ``pending.x``, the batch
        # as ``_begin`` cast it.
        return SimpleNamespace(x=np.asarray(x))

    def _finish(self, pending, local):
        if self.on_finish is not None:
            self.on_finish()
        return local.probs, np.zeros(len(pending.x), dtype=np.int64), \
            InferenceStats()


def stub_server(clock, **kwargs) -> tuple[TeamNetServer, StubMaster]:
    master = StubMaster(clock)
    server = TeamNetServer(master, clock=clock, **kwargs)
    return server, master


class TestServingDeadlines:
    def test_expired_at_submit_is_shed_without_dispatch(self):
        clock = FakeClock(100.0)
        server, master = stub_server(clock)
        with pytest.raises(DeadlineExpired):
            server.submit(np.zeros((1, 3)), deadline_s=0.0)
        stats = server.stats()
        assert stats.rejected == 1
        assert stats.shed_expired == 1
        assert stats.submitted == 0
        assert master.begin_calls == []     # nothing reached the wire
        server.close()

    def test_expiry_while_queued_sheds_before_broadcast(self):
        clock = FakeClock()
        server, master = stub_server(clock)
        # Queue before the dispatcher exists, then let the deadline pass.
        doomed = server.submit(np.zeros((2, 3)), deadline_s=0.5)
        live = server.submit(np.ones((2, 3)))
        clock.advance(1.0)
        server.start()
        try:
            live.result(timeout=30.0)
            with pytest.raises(DeadlineExpired):
                doomed.result(timeout=30.0)
        finally:
            server.close()
        stats = server.stats()
        assert stats.shed_expired == 1
        assert stats.failed == 1
        assert stats.completed == 1
        # Only the live request was broadcast.
        assert sum(c["rows"] for c in master.begin_calls) == 2

    def test_answer_after_deadline_is_booked_stale_not_delivered(self):
        clock = FakeClock()
        server, master = stub_server(clock)
        # The gather itself outlives the deadline: expiry strikes while
        # the request is in flight, after the broadcast went out.
        master.on_finish = lambda: clock.advance(2.0)
        future = server.submit(np.zeros((1, 3)), deadline_s=1.0)
        server.start()
        try:
            with pytest.raises(DeadlineExpired):
                future.result(timeout=30.0)
        finally:
            server.close()
        stats = server.stats()
        assert stats.stale_answers == 1
        assert stats.shed_expired == 1
        assert stats.failed == 1
        assert stats.completed == 0
        assert len(master.begin_calls) == 1  # it *was* dispatched

    def test_expired_future_settles_exactly_once(self):
        clock = FakeClock()
        server, master = stub_server(clock)
        master.on_finish = lambda: clock.advance(2.0)
        future = server.submit(np.zeros((1, 3)), deadline_s=1.0)
        server.start()
        try:
            with pytest.raises(DeadlineExpired):
                future.result(timeout=30.0)
        finally:
            server.close()
        assert future.state == "failed"
        value, error = future.outcome()
        assert value is None and isinstance(error, DeadlineExpired)
        # A second settle attempt must be a no-op.
        assert not future._resolve(("zombie",))
        with pytest.raises(DeadlineExpired):
            future.result(timeout=0)

    def test_abandoned_then_expired_counts_a_late_resolution(self):
        clock = FakeClock()
        server, master = stub_server(clock)
        master.on_finish = lambda: clock.advance(2.0)
        future = server.submit(np.zeros((1, 3)), deadline_s=1.0)
        assert future.abandon()
        server.start()
        try:
            with pytest.raises(Exception):
                future.result(timeout=0)
        finally:
            server.close()
        stats = server.stats()
        assert stats.abandoned == 1
        assert stats.late_resolutions == 1

    def test_single_request_batch_carries_whole_budget(self):
        clock = FakeClock(10.0)
        server, master = stub_server(clock)
        future = server.submit(np.zeros((2, 3)), deadline_s=5.0)
        server.start()
        try:
            future.result(timeout=30.0)
        finally:
            server.close()
        (call,) = master.begin_calls
        assert call["deadline_budget_s"] == pytest.approx(5.0)
        assert call["segment_budgets_s"] is None

    def test_coalesced_batch_carries_per_segment_budgets(self):
        clock = FakeClock()
        server, master = stub_server(clock)
        a = server.submit(np.zeros((1, 3)), deadline_s=5.0)
        b = server.submit(np.zeros((2, 3)), deadline_s=9.0)
        server.start()
        try:
            a.result(timeout=30.0)
            b.result(timeout=30.0)
        finally:
            server.close()
        (call,) = master.begin_calls
        assert call["segments"] == [1, 2]
        assert call["deadline_budget_s"] is None
        assert call["segment_budgets_s"] == [pytest.approx(5.0),
                                             pytest.approx(9.0)]

    def test_deadlines_optional_and_mixed(self):
        clock = FakeClock()
        server, master = stub_server(clock)
        a = server.submit(np.zeros((1, 3)))
        b = server.submit(np.zeros((1, 3)), deadline_s=9.0)
        server.start()
        try:
            a.result(timeout=30.0)
            b.result(timeout=30.0)
        finally:
            server.close()
        (call,) = master.begin_calls
        assert call["segment_budgets_s"] == [None, pytest.approx(9.0)]


class TestServerOverloadedPayload:
    def test_queue_full_rejection_carries_context(self):
        clock = FakeClock()
        server, _ = stub_server(clock, max_queue=2)
        server.submit(np.zeros((1, 3)))
        clock.advance(0.25)
        server.submit(np.zeros((1, 3)))
        with pytest.raises(ServerOverloaded) as info:
            server.submit(np.zeros((1, 3)))
        assert info.value.queue_depth == 2
        assert info.value.limit == 2
        assert info.value.oldest_age_s == pytest.approx(0.25)
        assert server.stats().shed_admission == 1
        server.close()

    def test_limiter_rejection_reports_the_adaptive_limit(self):
        clock = FakeClock()
        config = OverloadConfig(initial_limit=1, min_limit=1)
        server, _ = stub_server(clock, overload=config)
        server.submit(np.zeros((1, 3)))
        with pytest.raises(ServerOverloaded) as info:
            server.submit(np.zeros((1, 3)))
        assert info.value.limit == 1
        assert server.stats().shed_admission == 1
        snapshot = server.overload_snapshot()
        assert snapshot["enabled"]
        assert snapshot["limiter"]["shed"] == 1
        server.close()

    def test_limiter_slot_released_when_the_future_settles(self):
        clock = FakeClock()
        config = OverloadConfig(initial_limit=1, min_limit=1)
        server, _ = stub_server(clock, overload=config)
        future = server.submit(np.zeros((1, 3)))
        server.start()
        try:
            future.result(timeout=30.0)
            # Settled future returned its slot: the next admit succeeds.
            server.submit(np.zeros((1, 3))).result(timeout=30.0)
        finally:
            server.close()


# ------------------------------------------------------ worker shed paths
def make_worker(clock) -> ExpertWorker:
    expert = MLP(3, 4, depth=1, width=4, rng=np.random.default_rng(1))
    return ExpertWorker(expert, clock=clock)


def infer_message(x, sent_at, deadline_budget_s=None, segments=None,
                  segment_budgets_s=None) -> protocol.Message:
    meta = {"seq": 1, "sent_at": sent_at}
    if deadline_budget_s is not None:
        meta["deadline_budget_s"] = deadline_budget_s
    if segments is not None:
        meta["segments"] = segments
    if segment_budgets_s is not None:
        meta["segment_budgets_s"] = segment_budgets_s
    return protocol.Message(protocol.INFER, meta, {"x": x})


class TestWorkerShedding:
    def test_whole_request_shed_when_budget_spent(self):
        clock = FakeClock(10.0)
        worker = make_worker(clock)
        msg = infer_message(np.zeros((3, 3)), sent_at=9.0,
                            deadline_budget_s=0.5)
        assert worker._shed_rows(msg) == 3
        assert worker.forwards == 0

    def test_live_budget_is_not_shed(self):
        clock = FakeClock(10.0)
        worker = make_worker(clock)
        msg = infer_message(np.zeros((3, 3)), sent_at=9.9,
                            deadline_budget_s=0.5)
        assert worker._shed_rows(msg) is None

    def test_mid_batch_expiry_sheds_remaining_segments(self):
        clock = FakeClock(0.0)
        worker = make_worker(clock)
        x = np.random.default_rng(2).standard_normal((4, 3))
        msg = infer_message(x, sent_at=0.0, segments=[2, 1, 1],
                            segment_budgets_s=[1.0, 1.0, 1.0])
        # First segment's forward takes long enough to kill the rest.
        original = worker.expert
        forwards = []

        def stepping_clock():
            return clock.now

        worker._clock = stepping_clock
        from repro.core.inference import expert_forward
        ref = expert_forward(original, x[:2])

        # Advance the clock past the budget after segment 0 computes by
        # wrapping the clock reads: first read (segment 0 check) is live,
        # later reads are past the deadline.
        reads = {"n": 0}

        def budget_clock():
            reads["n"] += 1
            return 0.0 if reads["n"] <= 1 else 2.0

        worker._clock = budget_clock
        output, expired = worker._forward_shedding(msg)
        assert expired == [1, 2]
        assert worker.forwards == 1
        assert output.probs.shape == (4, 4)
        # The live segment is the real forward, byte for byte.
        np.testing.assert_array_equal(output.probs[:2], ref.probs)
        # Shed rows are exactly-uniform max-entropy filler.
        np.testing.assert_array_equal(output.probs[2:],
                                      np.full((2, 4), 0.25))
        assert np.all(output.entropy[2:] >= output.entropy[:2].min())

    def test_all_segments_expired_returns_none(self):
        clock = FakeClock(100.0)
        worker = make_worker(clock)
        msg = infer_message(np.zeros((2, 3)), sent_at=0.0, segments=[1, 1],
                            segment_budgets_s=[0.5, 0.5])
        output, expired = worker._forward_shedding(msg)
        assert output is None
        assert expired == [0, 1]
        assert worker.forwards == 0

    def test_mismatched_budgets_raise(self):
        worker = make_worker(FakeClock())
        msg = infer_message(np.zeros((2, 3)), sent_at=0.0, segments=[1, 1],
                            segment_budgets_s=[0.5])
        with pytest.raises(ValueError):
            worker._forward_shedding(msg)


# ----------------------------------------------------- wire-level EXPIRED
class TestWireLevelExpired:
    def test_slow_links_shed_on_the_worker_with_zero_forwards(self):
        """Transit alone outlives the budget: every worker must reply
        EXPIRED without running its expert, the master must book sheds
        (not failures), and no breaker or suspicion may trip."""
        rng = np.random.default_rng(0)
        experts = [MLP(4, 3, depth=1, width=4,
                       rng=np.random.default_rng(i)) for i in range(3)]
        lag = 0.5
        schedule = FaultSchedule(
            seed=0, request=LinkFaults(latency=(lag, lag)))
        with forbid_sockets(), \
                SimCluster(experts, schedule,
                           reply_timeout=30.0) as cluster:
            x = rng.standard_normal((2, 4))
            preds, winner, stats = cluster.infer(x, deadline_budget_s=0.1)
            assert stats.expired_replies == 2
            assert stats.failures == 0
            assert cluster.surviving_team == [0]
            for worker in cluster.workers:
                assert worker.forwards == 0
                assert worker.shed_expired == 1
            snapshot = cluster.master.resilience_snapshot()
            for peer in snapshot.values():
                assert peer.breaker_state == "closed"
                assert not peer.suspect
                assert peer.failures == 0
                assert peer.expired_replies == 1
            # The master's own expert still answered.
            assert preds.shape == (2,)
            assert np.all(winner == 0)

    def test_fast_links_never_shed(self):
        experts = [MLP(4, 3, depth=1, width=4,
                       rng=np.random.default_rng(i)) for i in range(3)]
        with forbid_sockets(), SimCluster(experts) as cluster:
            x = np.random.default_rng(1).standard_normal((2, 4))
            _, _, stats = cluster.infer(x, deadline_budget_s=10.0)
            assert stats.expired_replies == 0
            assert stats.participants == 3
            for worker in cluster.workers:
                assert worker.forwards == 1
                assert worker.shed_expired == 0


# --------------------------------------------------- retry budget wiring
def armed_master(cluster):
    """Seed enough latency samples that hedging is armed and mark one
    peer suspect, so ``_hedge_plan`` would hedge unless something stops
    it.  Returns (master, sent-peer list)."""
    master = cluster.master
    for _ in range(32):
        master._latencies.add(0.001)
    sent = list(master._peers)
    # A latency EWMA far above the hedge delay marks the peer "expected
    # to miss it" — the hedge trigger that needs no failure-detector
    # misses.
    sent[0].health.detector.observe(latency_s=5.0)
    return master, sent


class TestRetryBudgetWiring:
    def test_hedging_pauses_while_the_bucket_is_dry(self):
        experts = [MLP(4, 3, depth=1, width=4,
                       rng=np.random.default_rng(i)) for i in range(3)]
        budget = RetryBudget(capacity=2.0, refill_rate=0.0)
        with forbid_sockets(), \
                SimCluster(experts, retry_budget=budget) as cluster:
            master, sent = armed_master(cluster)
            delay, hedged = master._hedge_plan(sent, master.degradation)
            assert delay is not None and hedged == {sent[0].index}
            budget.try_spend(2.0)           # drain it
            delay, hedged = master._hedge_plan(sent, master.degradation)
            assert delay is None and hedged == set()



# ------------------------------------------- brownout on the served path
def walk_ladder(server, rung):
    """Feed the server's brownout ladder pressure samples until it
    stands on ``rung`` (escalating or recovering, one dwell per rung)."""
    brownout = server._brownout
    while brownout.level != rung:
        brownout.observe(1.0 if brownout.level < rung else 0.0)


def straggler_cluster():
    """Four experts; worker 1's replies take ~0.1 s of virtual time and
    the others' ~10 ms, so a warmed-up master hedges worker 1."""
    experts = [MLP(4, 3, depth=1, width=4,
                   rng=np.random.default_rng(i)) for i in range(4)]
    schedule = FaultSchedule(
        seed=7, reply=LinkFaults(latency=(0.008, 0.012)),
        per_address={("sim", 49152): {REPLY: LinkFaults(latency=(0.10,
                                                                 0.101))}})
    resilience = ResilienceConfig(hedge_min_samples=6, reset_timeout=0.0,
                                  failure_threshold=10 ** 6)
    return SimCluster(experts, schedule, reply_timeout=5.0,
                      resilience=resilience)


def short_handed_cluster():
    """Three experts, both workers crashed, under a policy that refuses
    any answer from fewer than all three."""
    experts = [MLP(4, 3, depth=1, width=4,
                   rng=np.random.default_rng(i)) for i in range(3)]
    policy = DegradationPolicy(min_quorum=3, on_violation="raise")
    cluster = SimCluster(experts, degradation=policy)
    cluster.crash_worker(1)
    cluster.crash_worker(2)
    return cluster


class TestBrownoutRungs:
    def test_rung_one_turns_hedging_off(self, rng):
        x = rng.standard_normal((2, 4))
        with forbid_sockets(), straggler_cluster() as cluster:
            for _ in range(2):          # fill the latency window
                cluster.infer(x)
            _, _, stats = cluster.infer(x)
            assert stats.hedged_workers == [1]  # the straggler is hedged
            server = cluster.serve(overload=OverloadConfig())
            try:
                walk_ladder(server, 1)
                _, _, stats = server.submit(x).result(timeout=10.0)
            finally:
                server.close()
        assert not stats.hedged and stats.hedge_delay_s is None
        assert stats.participants == 4  # the straggler was waited out

    def test_rung_two_answers_at_quorum_one(self, rng):
        x = rng.standard_normal((2, 4))
        with forbid_sockets(), short_handed_cluster() as cluster:
            with pytest.raises(QuorumError):
                cluster.infer(x)        # no brownout: the floor of 3 holds
            server = cluster.serve(overload=OverloadConfig())
            try:
                walk_ladder(server, 1)
                with pytest.raises(QuorumError):
                    server.submit(x).result(timeout=10.0)
                walk_ladder(server, 2)
                _, winner, stats = server.submit(x).result(timeout=10.0)
            finally:
                server.close()
            assert cluster.master.degradation.min_quorum == 3
        assert stats.participants == 1 and stats.violations == []
        assert np.all(winner == 0)

    def test_a_rung_change_in_flight_keeps_the_batch_floor(
            self, rng, monkeypatch):
        """A batch is judged by the rung it was dispatched under, however
        the ladder moves before its gather ends."""
        x = rng.standard_normal((2, 4))
        with forbid_sockets(), short_handed_cluster() as cluster:
            master = cluster.master
            server = cluster.serve(overload=OverloadConfig())
            finish = master._finish

            def move_then_finish(rung):
                def wrapped(pending, local):
                    walk_ladder(server, rung)
                    return finish(pending, local)
                return wrapped

            try:
                walk_ladder(server, 2)
                monkeypatch.setattr(master, "_finish", move_then_finish(0))
                _, _, stats = server.submit(x).result(timeout=10.0)
                assert stats.participants == 1 and stats.violations == []
                assert server._brownout.level == 0
                monkeypatch.setattr(master, "_finish", move_then_finish(2))
                with pytest.raises(QuorumError):
                    server.submit(x).result(timeout=10.0)
                assert server._brownout.level == 2
            finally:
                server.close()
