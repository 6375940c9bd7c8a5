"""Overload bench: goodput under a 10× burst, protected vs. unprotected.

The overload layer's promise is a *goodput floor*: on a seeded open-loop
warm/burst/recover schedule (Poisson, virtual time) the protected
serving model — AIMD admission, deadline sheds, LIFO under pressure,
brownout — must keep at least 70% of its warm goodput through the burst
AND through recovery, answer within the deadline (p99 of answered), and
never start service on an expired request.  The same arrivals through an
unbounded FIFO baseline must demonstrably queue-collapse: its backlog
outlives the burst and its recover-phase goodput rounds to nothing.

Fans :func:`repro.testkit.overload.overload_round` over seeds and writes
the full per-phase goodput trajectory for both runs to
``BENCH_overload.json`` (override with ``OVERLOAD_BENCH_JSON``).
"""

import os

from conftest import write_bench_json

from repro.testkit import forbid_sockets
from repro.testkit.overload import overload_round

SEEDS = tuple(int(s) for s in
              os.environ.get("OVERLOAD_BENCH_SEEDS", "0,1,2").split(","))
#: the protected run must keep this fraction of warm goodput in burst
#: and recover phases (the ISSUE's acceptance floor)
GOODPUT_FLOOR = 0.7
#: the baseline's recover goodput must fall below this fraction of the
#: protected run's (queue collapse on identical arrivals)
COLLAPSE_CEILING = 0.3


def test_bench_overload_goodput():
    rows = []
    with forbid_sockets():
        for seed in SEEDS:
            report = overload_round(seed)     # gates assert inside
            rows.append(report.to_dict())

    worst_burst = min(row["protected"]["burst"]["goodput_rps"]
                      / row["protected"]["warm"]["goodput_rps"]
                      for row in rows)
    worst_recover = min(row["protected"]["recover"]["goodput_rps"]
                        / row["protected"]["warm"]["goodput_rps"]
                        for row in rows)
    worst_collapse = max(
        row["baseline"]["recover"]["goodput_rps"]
        / max(row["protected"]["recover"]["goodput_rps"], 1e-9)
        for row in rows)
    payload = {
        "seeds": list(SEEDS),
        "goodput_floor": GOODPUT_FLOOR,
        "collapse_ceiling": COLLAPSE_CEILING,
        "worst_burst_goodput_ratio": round(worst_burst, 4),
        "worst_recover_goodput_ratio": round(worst_recover, 4),
        "worst_baseline_recover_ratio": round(worst_collapse, 4),
        "rounds": rows,
    }
    path = write_bench_json("overload", payload)
    print(f"\n{len(rows)} seeds: protected kept >= "
          f"{worst_burst:.0%} of warm goodput through the burst and "
          f"{worst_recover:.0%} through recovery; unprotected baseline "
          f"recovered only {worst_collapse:.0%} of protected goodput "
          f"-> {path}")

    for row in rows:
        warm = row["protected"]["warm"]["goodput_rps"]
        assert row["protected"]["burst"]["goodput_rps"] \
            >= GOODPUT_FLOOR * warm, row["seed"]
        assert row["protected"]["recover"]["goodput_rps"] \
            >= GOODPUT_FLOOR * warm, row["seed"]
        # Shedding must not masquerade as speed: answered requests beat
        # the deadline at the 99th percentile in every phase.
        for phase in ("warm", "burst", "recover"):
            p99 = row["protected"][phase]["p99_answered_ms"]
            assert p99 is not None and p99 <= row["deadline_ms"], (
                row["seed"], phase, p99)
        # Zero expired requests reached service in the protected run;
        # the baseline demonstrably wasted forwards on dead work.
        assert row["forwards_on_expired_protected"] == 0, row["seed"]
        assert row["forwards_on_expired_baseline"] > 0, row["seed"]
        assert row["baseline"]["recover"]["goodput_rps"] \
            <= COLLAPSE_CEILING * row["protected"]["recover"]["goodput_rps"]
        # The ladder engaged under the burst and walked back down.
        assert row["brownout_escalations"] >= 1, row["seed"]
