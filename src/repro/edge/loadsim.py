"""Event-driven load simulation for an edge inference cluster.

The paper evaluates one-shot inference latency; a deployed TeamNet serves
a *stream* of sensor events.  This module simulates that regime: requests
arrive (Poisson or deterministic), are queued FIFO, and are served by one
or more logical servers whose service time is the per-inference latency
of an approach (from :mod:`repro.edge.metrics` or measured).  The report
gives sojourn-time percentiles, utilization, throughput and drops — which
is where TeamNet's lower per-inference latency turns into a *capacity*
advantage: the sustainable arrival rate is ``servers / service_time``.

A TeamNet team occupies every device for the duration of one inference
(the input is broadcast to all experts), so a K-node team is modelled as
``servers=1`` with TeamNet's end-to-end latency — not K parallel servers.
Baseline fleets that run K *independent* replicas of the deep model are
the ``servers=K`` case.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = ["LoadReport", "poisson_arrivals", "uniform_arrivals",
           "simulate_queue", "sustainable_rate", "capacity_sweep"]


def poisson_arrivals(rate: float, duration: float,
                     rng: np.random.Generator | None = None) -> np.ndarray:
    """Arrival times of a Poisson process with ``rate`` req/s."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    times = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= duration:
            break
        times.append(t)
    return np.asarray(times)


def uniform_arrivals(rate: float, duration: float) -> np.ndarray:
    """Deterministic, evenly spaced arrivals with ``rate`` req/s."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    step = 1.0 / rate
    return np.arange(step, duration, step)


@dataclass
class LoadReport:
    """Outcome of one queueing simulation."""

    sojourn_times: np.ndarray     # arrival-to-completion per served request
    waiting_times: np.ndarray     # arrival-to-service-start
    served: int
    dropped: int
    duration: float
    busy_time: float
    servers: int

    @property
    def utilization(self) -> float:
        """Mean fraction of server capacity in use."""
        if self.duration <= 0:
            return 0.0
        return self.busy_time / (self.duration * self.servers)

    @property
    def throughput(self) -> float:
        """Served requests per second."""
        if self.duration <= 0:
            return 0.0
        return self.served / self.duration

    @property
    def drop_rate(self) -> float:
        total = self.served + self.dropped
        return self.dropped / total if total else 0.0

    def percentile(self, q: float) -> float:
        """Sojourn-time percentile in seconds."""
        if len(self.sojourn_times) == 0:
            return float("nan")
        return float(np.percentile(self.sojourn_times, q))

    @property
    def mean_sojourn(self) -> float:
        if len(self.sojourn_times) == 0:
            return float("nan")
        return float(self.sojourn_times.mean())


def simulate_queue(arrivals: np.ndarray, service_time, servers: int = 1,
                   queue_capacity: int | None = None,
                   rng: np.random.Generator | None = None) -> LoadReport:
    """FIFO queueing simulation with ``servers`` identical servers.

    ``service_time`` is either a constant (seconds) or a callable
    ``service_time(rng) -> seconds`` for stochastic services.  Requests
    that would find more than ``queue_capacity`` requests already waiting
    are dropped (None = unbounded).
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    arrivals = np.sort(np.asarray(arrivals, dtype=float))
    rng = rng if rng is not None else np.random.default_rng()
    draw = service_time if callable(service_time) else None
    constant = None if draw else float(service_time)
    if constant is not None and constant <= 0:
        raise ValueError("service_time must be positive")

    free_at = [0.0] * servers  # min-heap of server-free times
    heapq.heapify(free_at)
    # Min-heap of service-start times of admitted-but-not-yet-started
    # requests: a request is dropped if the number still waiting at its
    # arrival exceeds the capacity.  Arrivals are sorted, so entries with
    # ``start <= arrival`` have started for every later arrival too and
    # can be popped for good — the check stays O(log n) per arrival
    # instead of rescanning the whole history (O(n²) over a long run).
    pending_starts: list[float] = []
    sojourn, waiting = [], []
    dropped = 0
    busy = 0.0
    for arrival in arrivals:
        earliest_free = heapq.heappop(free_at)
        start = max(arrival, earliest_free)
        if queue_capacity is not None:
            while pending_starts and pending_starts[0] <= arrival:
                heapq.heappop(pending_starts)
            if len(pending_starts) > queue_capacity:
                dropped += 1
                heapq.heappush(free_at, earliest_free)
                continue
        service = float(draw(rng)) if draw else constant
        if service <= 0:
            raise ValueError("service_time must be positive")
        finish = start + service
        heapq.heappush(free_at, finish)
        if queue_capacity is not None:
            heapq.heappush(pending_starts, start)
        sojourn.append(finish - arrival)
        waiting.append(start - arrival)
        busy += service
    last_finish = max(free_at) if free_at else 0.0
    duration = max(float(arrivals[-1]) if len(arrivals) else 0.0,
                   last_finish)
    return LoadReport(sojourn_times=np.asarray(sojourn),
                      waiting_times=np.asarray(waiting),
                      served=len(sojourn), dropped=dropped,
                      duration=duration, busy_time=busy, servers=servers)


def sustainable_rate(service_time_s: float, servers: int = 1) -> float:
    """The arrival rate (req/s) at which utilization reaches 1."""
    if service_time_s <= 0:
        raise ValueError("service_time must be positive")
    return servers / service_time_s


def capacity_sweep(service_time_s: float, rates, duration: float = 60.0,
                   servers: int = 1, seed: int = 0) -> list[dict]:
    """Simulate a sweep of Poisson arrival rates; returns one summary dict
    per rate (rate, utilization, mean/p95 sojourn, drop_rate)."""
    out = []
    for rate in rates:
        arrivals = poisson_arrivals(rate, duration,
                                    np.random.default_rng(seed))
        report = simulate_queue(arrivals, service_time_s, servers=servers,
                                queue_capacity=64)
        out.append({
            "rate": float(rate),
            "utilization": report.utilization,
            "mean_sojourn_ms": report.mean_sojourn * 1e3,
            "p95_sojourn_ms": report.percentile(95) * 1e3,
            "drop_rate": report.drop_rate,
        })
    return out
