"""Integrity bench: silent-corruption detection latency and recovery.

The integrity layer's promise is timed in *canary probes*, not seconds:
with ``probe_every=1`` a corrupted worker must be quarantined within the
next few heartbeat-ridden probes, auto-redeployed from the checkpoint
store, and readmitted — after which answers are byte-identical to the
never-corrupted golden run.  This bench fans
:func:`repro.testkit.integrity.integrity_round` out over seeds and
rounds (sharpened experts, live weight bit-flips, stale workers
rejoining after a redeploy), records the probe counts, and re-runs the
sharpen cases on an *unprotected* master to show the baseline really is
poisoned on the same schedule.

Writes the sweep to ``BENCH_integrity.json`` (override the path with
``INTEGRITY_BENCH_JSON``) and gates every round on the probe budgets.
"""

from conftest import write_bench_json

from repro.testkit import forbid_sockets, integrity_round

SEEDS = (0, 1)
ROUNDS_PER_SEED = 6
#: probe_every=1, so detection must land within a couple of heartbeats
DETECT_PROBE_BUDGET = 3
#: redeploy + readmit_passes=2 consecutive clean canaries
RECOVERY_PROBE_BUDGET = 5


def test_bench_integrity_detection_latency():
    rows = []
    with forbid_sockets():
        for seed in SEEDS:
            for round_index in range(ROUNDS_PER_SEED):
                rows.append(integrity_round(seed, round_index))

    modes = {}
    for row in rows:
        modes[row["mode"]] = modes.get(row["mode"], 0) + 1
    worst_detect = max(row["detect_probes"] for row in rows)
    worst_recovery = max(row["recovery_probes"] for row in rows)
    baseline_divergences = sum(row.get("baseline_diverged", 0)
                               for row in rows)
    payload = {
        "seeds": list(SEEDS),
        "rounds_per_seed": ROUNDS_PER_SEED,
        "modes": modes,
        "detect_probe_budget": DETECT_PROBE_BUDGET,
        "recovery_probe_budget": RECOVERY_PROBE_BUDGET,
        "worst_detect_probes": worst_detect,
        "worst_recovery_probes": worst_recovery,
        "baseline_divergences": baseline_divergences,
        "rounds": rows,
    }
    path = write_bench_json("integrity", payload)
    print(f"\n{len(rows)} rounds over {modes}: worst detection "
          f"{worst_detect} probe(s), worst recovery {worst_recovery} "
          f"probe(s); unprotected baseline diverged on "
          f"{baseline_divergences} answers -> {path}")

    # Every corruption mode must actually have been exercised.
    assert set(modes) == {"sharpen", "bitflip", "stale-reconnect"}, modes
    for row in rows:
        # The gate: detection and full recovery fit their probe budgets
        # for every seed, round and corruption mode.
        assert row["detect_probes"] <= DETECT_PROBE_BUDGET, (
            f"seed {row['seed']} round {row['round']} ({row['mode']}): "
            f"detection took {row['detect_probes']} probes")
        assert row["recovery_probes"] <= RECOVERY_PROBE_BUDGET, (
            f"seed {row['seed']} round {row['round']} ({row['mode']}): "
            f"recovery took {row['recovery_probes']} probes")
        assert row["readmissions"] == 1
    # The defense must demonstrably matter: the unprotected master served
    # wrong answers on the very same schedules the protected one survived.
    assert baseline_divergences >= 1
