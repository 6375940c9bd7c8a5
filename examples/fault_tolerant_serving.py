#!/usr/bin/env python3
"""Fault-tolerant TeamNet serving + sustained-load capacity planning.

Five extensions beyond the paper, built on its runtime:

1. **Graceful degradation** — kill a worker mid-stream and watch the
   master drop it from the team and keep answering from the survivors
   (at reduced accuracy: each expert only knows its partition).  The
   gather is concurrent with a single per-inference deadline
   (``reply_timeout``), so even a dead or straggling worker costs at
   most one deadline per inference — never one timeout per peer.
2. **Automatic recovery** — restart the killed worker on the same port
   and watch the master reconnect (capped exponential backoff, starting
   at ``ResilienceConfig(reset_timeout=...)`` seconds) and fold it back
   into the team,
   without redeploying anything.
3. **Expert failover via redeployment** — training checkpoints the full
   team into a durable :class:`repro.store.CheckpointStore`; when a
   worker dies *permanently* (kills past the circuit-breaker cap), the
   master pushes that slot's checkpointed expert onto a cold standby
   node and rewires the slot — full-team accuracy comes back even
   though the original node never does.
4. **Master failover** — kill the *master* mid-service: the workers'
   leadership lease expires, a hot :class:`StandbyMaster` observes it,
   promotes itself at the next epoch (fencing the old master off), and
   the :class:`FailoverServer` re-drives every parked request to the
   successor — no accepted request is dropped or answered twice.
5. **Capacity planning** — use the queueing simulator to find the request
   rate each deployment sustains on Raspberry-Pi-class hardware.

Run:  python examples/fault_tolerant_serving.py
"""

import tempfile
import time

import numpy as np

from repro.core import TeamNet, TrainerConfig
from repro.data import synthetic_mnist, train_test_split
from repro.distributed import (FailoverServer, LeaseConfig, MasterFailover,
                               ResilienceConfig, StandbyMaster,
                               deploy_local_team)
from repro.distributed.teamnet_runtime import ExpertWorker, TeamNetMaster
from repro.edge import (RASPBERRY_PI_3B, WIFI, baseline_metrics,
                        capacity_sweep, profile_model, sustainable_rate,
                        teamnet_metrics)
from repro.nn import build_model, downsize, mlp_spec
from repro.store import CheckpointStore


def run(checkpoint_dir: str) -> None:
    """The six steps, checkpointing the team into ``checkpoint_dir``."""
    print("=== Fault-tolerant serving & capacity planning ===\n")
    rng = np.random.default_rng(4)
    dataset = synthetic_mnist(1600, seed=4)
    train, test = train_test_split(dataset, 0.2, rng=rng)

    print("[1/6] training a 3-expert team (checkpointing every epoch) ...")
    team = TeamNet.from_reference(
        mlp_spec(depth=8, width=64), num_experts=3,
        config=TrainerConfig(epochs=8, seed=4), seed=4)
    store = CheckpointStore(checkpoint_dir)
    team.fit(train, checkpoint_store=store)
    print(f"      full-team accuracy: {team.accuracy(test):.3f}")
    print(f"      durable checkpoint: generation "
          f"{store.latest_valid()} in {checkpoint_dir}/")

    print("\n[2/6] serving with degradation enabled, then killing a "
          "worker ...")
    master, workers = deploy_local_team(
        team.experts, degrade_on_failure=True, reply_timeout=2.0,
        resilience=ResilienceConfig(failure_threshold=2, reset_timeout=0.1,
                                    reset_timeout_max=1.0))
    master.store = store  # arm redeploy with the checkpointed experts
    standby = None
    try:
        batch = test.images[:64]
        labels = test.labels[:64]
        preds, _, _ = master.infer(batch)
        print(f"      healthy team ({master.live_team_size} nodes): "
              f"accuracy {np.mean(preds == labels):.3f}")
        workers[0].stop()
        print("      !! worker 1 killed")
        for _ in range(2):  # first call notices the failure
            preds, winner, _ = master.infer(batch)
        print(f"      degraded team ({master.live_team_size} nodes, "
              f"failed={master.failed_workers}): "
              f"accuracy {np.mean(preds == labels):.3f}")
        print(f"      surviving winners: {sorted(set(winner.tolist()))}")

        print("\n[3/6] restarting the worker on the same port ...")
        workers[0].start()
        deadline = time.monotonic() + 10.0
        while master.failed_workers and time.monotonic() < deadline:
            time.sleep(0.1)  # give the backoff window a chance to elapse
            preds, _, _ = master.infer(batch)
        print(f"      recovered team ({master.live_team_size} nodes, "
              f"failed={master.failed_workers}): "
              f"accuracy {np.mean(preds == labels):.3f}")

        print("\n[4/6] killing worker 1 for good, then redeploying its "
              "expert onto a standby node ...")
        workers[0].stop()
        # Drive the breaker past its cap: this node is not coming back.
        while 1 not in master.failed_workers:
            master.infer(batch)
        preds, _, stats = master.infer(batch)
        print(f"      degraded ({stats.participants} participants): "
              f"accuracy {np.mean(preds == labels):.3f}")
        # A cold standby: same architecture, untrained weights.  The
        # master pushes the *checkpointed* expert over the wire.
        standby = ExpertWorker(build_model(team.expert_spec, rng))
        standby.start()
        master.redeploy(1, standby.address)
        preds, _, stats = master.infer(batch)
        print(f"      redeployed onto {standby.address}: "
              f"{stats.participants} participants, accuracy "
              f"{np.mean(preds == labels):.3f} "
              f"({master.redeploy_traffic.bytes_sent} model bytes pushed)")
        for index, health in sorted(master.worker_health.items()):
            mean = health.mean_reply_latency_s
            print(f"      worker {index}: {health.replies} replies, "
                  f"{health.failures} failures "
                  f"({health.timeouts} timeouts), "
                  f"{health.reconnects} reconnects, "
                  f"{health.redeployments} redeployments, "
                  f"mean reply {0.0 if mean is None else mean * 1e3:.1f} ms")
    finally:
        master.close()
        for worker in workers:
            worker.stop()
        if standby is not None:
            standby.stop()

    print("\n[5/6] killing the *master* mid-service: lease expiry, "
          "standby promotion, request re-drive ...")
    lease = LeaseConfig(duration_s=0.5)
    team_workers = []
    for expert in team.experts[1:]:
        worker = ExpertWorker(expert)
        worker.start()
        team_workers.append(worker)
    primary = TeamNetMaster(
        team.experts[0], [w.address for w in team_workers],
        epoch=1, leader_id="primary", degrade_on_failure=True,
        reply_timeout=2.0, store=store)
    # A *hot* standby this time: it mirrors the master expert and the
    # worker roster so it can take over the live team, not just one slot.
    hot_spare = StandbyMaster(
        "standby-0", expert=team.experts[0], store=store,
        roster={i: w.address for i, w in enumerate(team_workers, start=1)},
        lease=lease)
    hot_spare.start()
    primary.standbys = [hot_spare.address]
    front = promoted = None
    try:
        primary.attach()  # workers' leases now name "primary" at epoch 1
        front = FailoverServer(primary.serve(max_batch=8))
        flat = batch.reshape(len(batch), -1)  # serving takes 2-D batches
        preds, _, _ = front.infer(flat, timeout=10.0)
        print(f"      primary (epoch 1) serving: accuracy "
              f"{np.mean(preds == labels):.3f}")
        front.kill(closer=primary.close,
                   error=MasterFailover("example: primary killed"))
        parked = [front.submit(x) for x in np.array_split(flat, 4)]
        print(f"      !! primary killed; {front.stats().parked} requests "
              f"parked for re-drive")
        time.sleep(lease.duration_s * 1.5)  # let every lease age out
        view = hot_spare.poll()
        print(f"      standby observes leader_lost={view.leader_lost} "
              f"({len(view.reachable)} workers report stale leases)")
        promoted = hot_spare.promote(degrade_on_failure=True,
                                     reply_timeout=2.0)
        redriven = front.failover_to(promoted.serve(max_batch=8))
        answers = [future.result(timeout=10.0) for future in parked]
        preds = np.concatenate([a[0] for a in answers])
        stats = front.stats()
        print(f"      promoted standby (epoch {promoted.epoch}) re-drove "
              f"{redriven} requests: accuracy "
              f"{np.mean(preds == labels):.3f} "
              f"(completed {stats.completed}/{stats.submitted}, "
              f"duplicates suppressed {stats.duplicates_suppressed})")
    finally:
        if front is not None:
            front.close()
        if promoted is not None:
            promoted.close()
        hot_spare.stop()
        for worker in team_workers:
            worker.stop()

    print("\n[6/6] sustainable request rates on Raspberry Pi 3B+ "
          "(deployment scale):")
    ref = mlp_spec(8, width=2048)
    base = baseline_metrics(
        profile_model(build_model(ref, rng), (ref.in_features,)),
        RASPBERRY_PI_3B)
    rows = [("baseline MLP-8", base.latency_s)]
    for k in (2, 4):
        spec = downsize(ref, k)
        metrics = teamnet_metrics(
            profile_model(build_model(spec, rng), (spec.in_features,)),
            k, RASPBERRY_PI_3B, WIFI)
        rows.append((f"TeamNet {k}x {spec.name}", metrics.latency_s))
    for name, latency in rows:
        capacity = sustainable_rate(latency)
        at80 = capacity_sweep(latency, [0.8 * capacity], duration=20.0)[0]
        print(f"      {name:<22} capacity {capacity:7.1f} req/s   "
              f"p95 @ 80% load {at80['p95_sojourn_ms']:6.1f} ms")
    print("\nDone: fewer, smaller experts per node -> more headroom per "
          "device, the team survives node failures, failed nodes rejoin "
          "automatically when they come back, permanently lost experts "
          "redeploy from the checkpoint store onto standbys, and even "
          "the master itself fails over to a hot standby without "
          "dropping a request.")


def main() -> None:
    # The checkpoint directory lives exactly as long as the run.
    with tempfile.TemporaryDirectory(prefix="teamnet-ckpt-") as checkpoint_dir:
        run(checkpoint_dir)


if __name__ == "__main__":
    main()
