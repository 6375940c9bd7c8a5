"""Failover bench: recovery time vs the lease's promotion budget.

The failover contract in :mod:`repro.distributed.failover` is timed, not
just safe: :class:`~repro.distributed.resilience.LeaseConfig` promises
that detection → election → re-attach → every parked request re-driven
and answered fits inside ``duration_s * promotion_multiple``.  This
bench sweeps lease durations and scripted link latencies on the
simulated fabric (virtual clock — scripted transit delays advance it,
nothing sleeps), kills the primary mid-traffic, and measures the
virtual time from the kill to the last re-driven answer.

Writes the sweep to ``BENCH_failover.json`` (override the path with
``FAILOVER_BENCH_JSON``) and gates every configuration on its own
``recovery_budget_s``.
"""

import numpy as np
from conftest import write_bench_json

from repro.distributed.failover import FailoverServer, MasterFailover
from repro.distributed.resilience import LeaseConfig
from repro.nn import MLP
from repro.testkit import (FaultSchedule, LinkFaults, SimFailoverCluster,
                           forbid_sockets)

TEAM = 3
FEATURES = 10
SETTLED_REQUESTS = 4   # answered before the kill
PARKED_REQUESTS = 4    # submitted while leaderless, re-driven after
LEASE_DURATIONS_S = (0.2, 0.5, 1.0)
#: scripted one-way transit latency (lo, hi) in virtual seconds
LINK_LATENCIES_S = ((0.0, 0.0), (0.005, 0.02))


def make_experts(seed):
    return [MLP(FEATURES, 3, depth=1, width=6,
                rng=np.random.default_rng((seed, i))) for i in range(TEAM)]


def run_failover(duration_s, latency_s, seed):
    """One kill → detect → elect → promote → re-drive pass; returns the
    virtual-time breakdown."""
    lease = LeaseConfig(duration_s=duration_s)
    faults = LinkFaults(latency=latency_s)
    schedule = FaultSchedule(seed=seed, request=faults, reply=faults)
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((2, FEATURES)).astype(np.float32)
          for _ in range(SETTLED_REQUESTS + PARKED_REQUESTS)]
    with SimFailoverCluster(make_experts(seed), schedule, n_standbys=2,
                            lease=lease) as cluster:
        front = FailoverServer(cluster.serve(max_batch=4, coalesce="exact"))
        futures = []
        for x in xs[:SETTLED_REQUESTS]:
            future = front.submit(x)
            futures.append(future)
            future.result(timeout=30.0)
        t_kill = cluster.clock.now
        front.kill(closer=cluster.kill_primary,
                   error=MasterFailover("bench: primary killed"))
        futures += [front.submit(x) for x in xs[SETTLED_REQUESTS:]]
        # Detection: the next poll after one lease duration observes
        # every reachable worker's lease expired.
        cluster.expire_lease()
        view = cluster.standby.poll()
        assert view.leader_lost, f"lease not observed expired: {view}"
        t_detected = cluster.clock.now
        winner = cluster.elect(priorities=[0.3, 0.7])
        t_elected = cluster.clock.now
        promoted = cluster.promote(rank=winner)
        t_promoted = cluster.clock.now
        try:
            redriven = front.failover_to(
                promoted.serve(max_batch=4, coalesce="exact"))
            for future in futures:
                future.result(timeout=30.0)
        finally:
            front.close()
        t_recovered = cluster.clock.now
        stats = front.stats()
    assert redriven == PARKED_REQUESTS
    assert stats.failed == 0
    assert stats.completed == len(xs)
    return {
        "lease_duration_s": duration_s,
        "recovery_budget_s": lease.recovery_budget_s,
        "link_latency_s": list(latency_s),
        "detection_s": t_detected - t_kill,
        "election_s": t_elected - t_detected,
        "promotion_s": t_promoted - t_elected,
        "redrive_s": t_recovered - t_promoted,
        "recovery_s": t_recovered - t_kill,
        "redriven": redriven,
        "duplicates_suppressed": stats.duplicates_suppressed,
    }


def test_bench_failover_recovery():
    sweep = []
    with forbid_sockets():
        for duration_s in LEASE_DURATIONS_S:
            for latency_s in LINK_LATENCIES_S:
                sweep.append(run_failover(duration_s, latency_s,
                                          seed=int(duration_s * 1000)))

    worst = max(sweep, key=lambda row: row["recovery_s"]
                / row["recovery_budget_s"])
    payload = {
        "team_size": TEAM,
        "standbys": 2,
        "settled_requests": SETTLED_REQUESTS,
        "parked_requests": PARKED_REQUESTS,
        "promotion_multiple": LeaseConfig().promotion_multiple,
        "worst_recovery_s": worst["recovery_s"],
        "worst_budget_fraction": worst["recovery_s"]
        / worst["recovery_budget_s"],
        "sweep": sweep,
    }
    path = write_bench_json("failover", payload)
    print(f"\nworst recovery {worst['recovery_s'] * 1000:.1f} ms of "
          f"{worst['recovery_budget_s'] * 1000:.0f} ms budget "
          f"(lease {worst['lease_duration_s']} s, latency "
          f"{worst['link_latency_s']}) -> {path}")

    for row in sweep:
        # The gate: the whole kill-to-last-answer window fits inside the
        # configured promotion budget, for every lease/latency pairing.
        assert row["recovery_s"] <= row["recovery_budget_s"], (
            f"recovery {row['recovery_s']:.3f} s blew the "
            f"{row['recovery_budget_s']:.3f} s budget at lease "
            f"{row['lease_duration_s']} s, latency {row['link_latency_s']}")
        # Detection dominates: everything after the lease expiry is
        # messaging, which must stay well under one extra lease.
        assert row["recovery_s"] - row["detection_s"] <= \
            row["lease_duration_s"] + 1.0
