"""Seeded chaos soak: the runtime under sustained, compounding faults.

Unlike the differential sweep (fresh cluster per case), this drives ONE
long-lived cluster through a seeded storm of lossy links, crash/restart
cycles and heartbeat probes, checking the availability invariants the
resilience control plane promises after every single round:

* the master always answers (``DegradationPolicy(min_quorum=1)``, the
  SimCluster default);
* the master itself is always a participant;
* every winning expert comes from the surviving set;
* the stats faithfully report participation and degradation;
* the degraded answer is byte-identical to the single-process reference
  over whoever survived.

``CHAOS_SEED`` / ``CHAOS_ROUNDS`` come from the environment so CI's
``scripts/ci.sh --chaos`` can fan a soak out over many seeds; the
defaults keep one short soak in the tier-1 suite.  A failing round
writes a JSON repro artifact (seed + round + schedule) to
``CHAOS_REPRO_DIR`` so the exact storm can be replayed.
"""

import json
import os

import numpy as np

from repro.core.inference import TeamInference
from repro.distributed import ResilienceConfig
from repro.nn import MLP
from repro.testkit import (FaultSchedule, LinkFaults, SimCluster,
                           forbid_sockets)

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
CHAOS_ROUNDS = int(os.environ.get("CHAOS_ROUNDS", "12"))
DEFAULT_REPRO_DIR = ".chaos-repro"

TEAM_SIZE = 5
IN_DIM = 6
CLASSES = 4


def make_schedule(seed: int) -> FaultSchedule:
    """Very lossy fabric: ~30% silent drops in both directions, jittered
    reply latency, occasional duplicates and reorders."""
    return FaultSchedule(
        seed=seed,
        request=LinkFaults(drop=0.3, duplicate=0.05),
        reply=LinkFaults(drop=0.3, duplicate=0.05, reorder=0.1,
                         latency=(0.0, 0.05)),
    )


def _dump_repro(round_index: int, schedule: FaultSchedule,
                error: Exception) -> str:
    directory = os.environ.get("CHAOS_REPRO_DIR", DEFAULT_REPRO_DIR)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"chaos-seed{CHAOS_SEED}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "chaos_seed": CHAOS_SEED,
            "rounds": CHAOS_ROUNDS,
            "failed_round": round_index,
            "schedule": schedule.to_dict(),
            "error": str(error),
            "replay": f"CHAOS_SEED={CHAOS_SEED} CHAOS_ROUNDS={CHAOS_ROUNDS} "
                      "python -m pytest tests/testkit/test_chaos.py",
        }, handle, indent=2)
    return path


def test_chaos_soak():
    rng = np.random.default_rng((0xC4A05, CHAOS_SEED))
    experts = [MLP(IN_DIM, CLASSES, depth=2, width=8,
                   rng=np.random.default_rng((CHAOS_SEED, i)))
               for i in range(TEAM_SIZE)]
    schedule = make_schedule(CHAOS_SEED)
    resilience = ResilienceConfig(failure_threshold=2, reset_timeout=0.0,
                                  reset_timeout_max=0.0)
    down: set[int] = set()
    answered = degraded_rounds = 0
    with forbid_sockets(), \
            SimCluster(experts, schedule, reply_timeout=0.5,
                       resilience=resilience) as cluster:
        for round_index in range(CHAOS_ROUNDS):
            try:
                action = rng.random()
                up = set(range(1, TEAM_SIZE)) - down
                if action < 0.3 and up:
                    victim = int(rng.choice(sorted(up)))
                    cluster.crash_worker(victim)
                    down.add(victim)
                elif action < 0.6 and down:
                    revived = int(rng.choice(sorted(down)))
                    cluster.restart_worker(revived)
                    down.remove(revived)
                elif action < 0.8:
                    rtts = cluster.heartbeat()
                    # A worker that is down can never pong.
                    assert all(rtts[i] is None for i in down)

                x = rng.standard_normal((3, IN_DIM))
                preds, winner, stats = cluster.infer(x)
                participants = cluster.surviving_team

                assert participants and participants[0] == 0
                assert not down & set(participants)
                assert set(np.unique(winner)) <= set(participants)
                assert stats.participants == len(participants)
                assert stats.degraded == (len(participants) < TEAM_SIZE)
                reference = TeamInference(
                    [experts[i] for i in participants])
                assert preds.tobytes() == reference.predict(x).tobytes()
                answered += 1
                degraded_rounds += int(stats.degraded)
            except AssertionError as exc:
                path = _dump_repro(round_index, schedule, exc)
                raise AssertionError(
                    f"chaos round {round_index} (seed {CHAOS_SEED}): {exc} "
                    f"(repro artifact: {path})") from exc
    assert answered == CHAOS_ROUNDS  # availability: every round answered


def test_chaos_flapping_single_link():
    """A soak variant aimed at the breaker: one worker's reply link drops
    everything, so it flaps between reconnect and failure forever.  The
    team must converge to serving without it rather than stalling."""
    experts = [MLP(IN_DIM, CLASSES, depth=2, width=8,
                   rng=np.random.default_rng((CHAOS_SEED, 100 + i)))
               for i in range(3)]
    schedule = FaultSchedule(seed=CHAOS_SEED, per_address={
        ("sim", 49152): {"reply": LinkFaults(drop=1.0)}})
    resilience = ResilienceConfig(failure_threshold=2, reset_timeout=0.05,
                                  reset_timeout_max=0.1)
    rng = np.random.default_rng((0xF1A9, CHAOS_SEED))
    with forbid_sockets(), \
            SimCluster(experts, schedule, reply_timeout=0.5,
                       resilience=resilience) as cluster:
        for _ in range(max(6, CHAOS_ROUNDS // 2)):
            x = rng.standard_normal((2, IN_DIM))
            preds, winner, _ = cluster.infer(x)
            assert preds.shape == (2,)
            assert 1 not in cluster.surviving_team
            assert set(np.unique(winner)) <= {0, 2}
        # The flap shows up in the control plane, not in availability.
        snapshot = cluster.master.resilience_snapshot()
        assert snapshot[1].failures >= 2
        assert snapshot[1].suspect
        assert snapshot[2].breaker_state == "closed"