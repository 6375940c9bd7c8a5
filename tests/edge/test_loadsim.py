"""Tests for the event-driven load simulator."""

import numpy as np
import pytest

from repro.edge.loadsim import (capacity_sweep, poisson_arrivals,
                                simulate_queue, sustainable_rate,
                                uniform_arrivals)


class TestArrivals:
    def test_poisson_rate_approximate(self):
        arrivals = poisson_arrivals(100.0, 50.0, np.random.default_rng(0))
        empirical = len(arrivals) / 50.0
        assert 85 < empirical < 115

    def test_poisson_sorted_within_duration(self):
        arrivals = poisson_arrivals(10.0, 5.0, np.random.default_rng(1))
        assert (np.diff(arrivals) > 0).all()
        assert arrivals.max() < 5.0

    def test_uniform_spacing(self):
        arrivals = uniform_arrivals(4.0, 2.0)
        np.testing.assert_allclose(np.diff(arrivals), 0.25)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 1.0)
        with pytest.raises(ValueError):
            uniform_arrivals(-1.0, 1.0)


class TestSimulateQueue:
    def test_no_contention_sojourn_equals_service(self):
        arrivals = uniform_arrivals(1.0, 10.0)  # far below capacity
        report = simulate_queue(arrivals, service_time=0.01)
        np.testing.assert_allclose(report.sojourn_times, 0.01, rtol=1e-9)
        np.testing.assert_allclose(report.waiting_times, 0.0, atol=1e-12)

    def test_utilization_matches_theory(self):
        # M/D/1: utilization = lambda * service.
        arrivals = poisson_arrivals(50.0, 100.0, np.random.default_rng(2))
        report = simulate_queue(arrivals, service_time=0.01)
        assert abs(report.utilization - 0.5) < 0.05

    def test_waiting_grows_with_load(self):
        rng = np.random.default_rng(3)
        light = simulate_queue(poisson_arrivals(10, 60, rng), 0.01)
        heavy = simulate_queue(
            poisson_arrivals(90, 60, np.random.default_rng(3)), 0.01)
        assert heavy.mean_sojourn > light.mean_sojourn
        assert heavy.percentile(95) > light.percentile(95)

    def test_overload_queues_grow_unbounded(self):
        arrivals = uniform_arrivals(200.0, 5.0)  # 2x capacity
        report = simulate_queue(arrivals, service_time=0.01)
        # Later requests wait much longer than earlier ones.
        first = report.waiting_times[:50].mean()
        last = report.waiting_times[-50:].mean()
        assert last > first + 1.0

    def test_bounded_queue_drops(self):
        arrivals = uniform_arrivals(200.0, 5.0)
        report = simulate_queue(arrivals, service_time=0.01,
                                queue_capacity=8)
        assert report.dropped > 0
        assert report.drop_rate > 0.2
        # Served requests never wait absurdly long.
        assert report.percentile(95) < 1.0

    def test_more_servers_cut_waiting(self):
        arrivals = poisson_arrivals(150, 30, np.random.default_rng(4))
        one = simulate_queue(arrivals, 0.01, servers=1)
        two = simulate_queue(arrivals, 0.01, servers=2)
        assert two.mean_sojourn < one.mean_sojourn

    def test_stochastic_service(self):
        arrivals = uniform_arrivals(5.0, 10.0)
        report = simulate_queue(
            arrivals, service_time=lambda rng: rng.uniform(0.005, 0.015),
            rng=np.random.default_rng(5))
        assert 0.005 <= report.sojourn_times.min()
        assert report.served == len(arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_queue(np.array([1.0]), 0.01, servers=0)
        with pytest.raises(ValueError):
            simulate_queue(np.array([1.0]), -0.5)


class TestCapacityAnalysis:
    def test_sustainable_rate(self):
        assert sustainable_rate(0.01) == 100.0
        assert sustainable_rate(0.01, servers=3) == 300.0
        with pytest.raises(ValueError):
            sustainable_rate(0.0)

    def test_capacity_sweep_monotone_latency(self):
        rows = capacity_sweep(0.01, rates=[20, 60, 95], duration=30.0)
        assert rows[0]["mean_sojourn_ms"] <= rows[1]["mean_sojourn_ms"] \
            <= rows[2]["mean_sojourn_ms"]
        assert rows[0]["drop_rate"] == 0.0

    def test_teamnet_capacity_advantage(self):
        """The motivation for this module: TeamNet's lower per-inference
        latency on CPU-class devices translates into a higher sustainable
        request rate for the same fleet."""
        from repro.edge import (RASPBERRY_PI_3B, WIFI, baseline_metrics,
                                profile_model, teamnet_metrics)
        from repro.nn import build_model, downsize, mlp_spec
        rng = np.random.default_rng(0)
        ref = mlp_spec(8, width=2048)
        base = baseline_metrics(
            profile_model(build_model(ref, rng), (ref.in_features,)),
            RASPBERRY_PI_3B)
        spec = downsize(ref, 4)
        team = teamnet_metrics(
            profile_model(build_model(spec, rng), (spec.in_features,)),
            4, RASPBERRY_PI_3B, WIFI)
        assert (sustainable_rate(team.latency_s)
                > 2 * sustainable_rate(base.latency_s))


def _naive_simulate(arrivals, service_time, servers=1, queue_capacity=None):
    """Executable spec for the bounded-queue drop rule: count the
    admitted requests still waiting at each arrival by scanning the full
    start-time history (the pre-heap O(n^2) bookkeeping, kept here as
    the reference the production heap must match exactly)."""
    import heapq
    free_at = [0.0] * servers
    heapq.heapify(free_at)
    starts = []
    sojourn, dropped = [], 0
    for arrival in np.sort(np.asarray(arrivals, dtype=float)):
        earliest = heapq.heappop(free_at)
        start = max(arrival, earliest)
        if queue_capacity is not None:
            still_waiting = sum(1 for s in starts if s > arrival)
            if still_waiting > queue_capacity:
                dropped += 1
                heapq.heappush(free_at, earliest)
                continue
        finish = start + service_time
        heapq.heappush(free_at, finish)
        starts.append(start)
        sojourn.append(finish - arrival)
    return sojourn, dropped


class TestBoundedQueueBookkeeping:
    """Regression: ``pending_starts`` was never pruned, so the drop check
    rescanned every admitted request ever — O(n^2) over a long run."""

    @pytest.mark.parametrize("servers,capacity", [(1, 0), (1, 1), (1, 3),
                                                  (2, 2)])
    def test_heap_matches_naive_reference(self, servers, capacity):
        rng = np.random.default_rng(2024 + servers * 10 + capacity)
        # Near-capacity Poisson load so the queue genuinely oscillates
        # between empty, full, and dropping.
        arrivals = poisson_arrivals(9.0, 40.0, rng)
        report = simulate_queue(arrivals, 0.11, servers=servers,
                                queue_capacity=capacity)
        ref_sojourn, ref_dropped = _naive_simulate(
            arrivals, 0.11, servers=servers, queue_capacity=capacity)
        assert report.dropped == ref_dropped
        assert report.served == len(ref_sojourn)
        np.testing.assert_allclose(report.sojourn_times, ref_sojourn)
        assert report.dropped > 0  # the case actually exercised drops

    def test_long_overloaded_run_stays_fast(self):
        import time
        # 200k arrivals at 2x capacity with a tiny queue: the old
        # unpruned scan is quadratic here (minutes); the heap finishes
        # in well under a second of simulator time.
        arrivals = uniform_arrivals(200.0, 1000.0)
        start = time.monotonic()
        report = simulate_queue(arrivals, 0.01, queue_capacity=5)
        assert time.monotonic() - start < 5.0
        assert report.dropped > 0
        assert report.served + report.dropped == len(arrivals)

