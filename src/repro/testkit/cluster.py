"""SimCluster: the real distributed runtime on the simulated fabric.

This is *not* a mock of the runtime — it wires the production
:class:`~repro.distributed.teamnet_runtime.TeamNetMaster` and
:class:`~repro.distributed.teamnet_runtime.ExpertWorker` classes (real
threads, real gather state machine, real reconnect backoff) over a
:class:`~repro.testkit.sim_transport.SimNetwork`, so every protocol code
path from PR 1 — concurrent gather, deadline handling, degradation,
crash, rejoin — runs in-process in milliseconds with scriptable faults.
"""

from __future__ import annotations

import copy
import threading

import numpy as np

from ..core.inference import team_dtype
from ..distributed.failover import StandbyMaster
from ..distributed.resilience import (DegradationPolicy, LeaseConfig,
                                      ResilienceConfig)
from ..distributed.teamnet_runtime import (ExpertWorker, TeamNetMaster,
                                           deployed_versions)
from ..nn import Module, weights_fingerprint
from .faults import FaultSchedule
from .sim_transport import SimNetwork

__all__ = ["SimCluster", "SimFailoverCluster"]


class SimCluster:
    """Expert 0 as master, the rest as simulated workers.

    ``resilience`` defaults to ``ResilienceConfig(reset_timeout=0.0)`` so
    a tripped circuit breaker admits its half-open probe immediately and
    a restarted worker rejoins on the very next inference (the breaker's
    open window is real time, which a simulation should not wait on); a
    caller-supplied config is used as given.  ``reply_timeout`` stays a
    *real* backstop for in-process compute, but scripted latency and
    drops resolve against it virtually — a fully-faulted gather returns
    in microseconds, not after the deadline.  ``degradation`` passes
    through to the master; its default answers from whichever experts
    are up, as most fault scripts need.  The experts must share one
    parameter dtype, the team's compute and wire dtype.
    """

    def __init__(self, experts: list[Module],
                 schedule: FaultSchedule | None = None, *,
                 reply_timeout: float | None = 1.0,
                 resilience=None, degradation=DegradationPolicy(min_quorum=1),
                 host: str = "sim", engine: str = "tape",
                 integrity=None, canaries=None, store=None,
                 retry_budget=None):
        if len(experts) < 2:
            raise ValueError("a team needs >= 2 experts")
        team_dtype(experts)
        self.experts = list(experts)
        self.network = SimNetwork(schedule)
        # Workers and master share the fabric's virtual clock: deadline
        # budgets (``sent_at`` charging in repro.distributed.overload)
        # only make sense when both ends read comparable clocks, and on
        # the sim fabric that clock must be the scripted one.
        clock = lambda: self.network.clock.now  # noqa: E731
        self._clock_fn = clock
        self.workers: list[ExpertWorker] = []
        try:
            for expert in self.experts[1:]:
                worker = ExpertWorker(expert, host=host,
                                      transport=self.network.transport,
                                      engine=engine, clock=clock)
                worker.start()
                self.workers.append(worker)
            self.master = TeamNetMaster(
                self.experts[0], [w.address for w in self.workers],
                reply_timeout=reply_timeout,
                transport=self.network.transport,
                resilience=resilience or ResilienceConfig(reset_timeout=0.0),
                degradation=degradation,
                engine=engine, integrity=integrity, canaries=canaries,
                expected_versions=deployed_versions(self.experts, integrity),
                store=store,
                retry_budget=retry_budget, clock=clock)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------ inference
    def infer(self, x: np.ndarray, deadline_budget_s: float | None = None):
        """One collaborative inference; see ``TeamNetMaster.infer``."""
        return self.master.infer(x, deadline_budget_s=deadline_budget_s)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.master.predict(x)

    def heartbeat(self, timeout: float | None = None):
        """Run one master heartbeat round; see ``TeamNetMaster.heartbeat``."""
        return self.master.heartbeat(timeout=timeout)

    def serve(self, **kwargs):
        """A started :class:`~repro.distributed.serving.TeamNetServer`
        over this cluster's master — the concurrent submit/micro-batch
        path on the simulated fabric.  Close it before the cluster."""
        return self.master.serve(**kwargs)

    @property
    def clock(self):
        return self.network.clock

    @property
    def surviving_team(self) -> list[int]:
        """Original team indices that contributed to the last inference."""
        return list(self.master.last_participants)

    # ------------------------------------------------------------- failures
    def crash_worker(self, index: int) -> None:
        """Kill worker ``index`` (1-based team numbering, matching the
        master's): stop its listener *and* sever every connection it
        accepted, as a process death would."""
        worker = self._worker(index)
        listener = worker._server.listener  # grab before stop() drops it
        worker.stop()
        if listener is not None:
            listener.kill_connections()

    def restart_worker(self, index: int) -> None:
        """Restart a crashed worker on its original (pinned) port."""
        self._worker(index).start()

    def corrupt_worker(self, index: int, corruptor) -> None:
        """Apply ``corruptor(expert)`` to worker ``index``'s live expert —
        a *silent* fault: no crash, no error reply, the worker keeps
        answering (under its cached install-time version stamp) with
        whatever the damaged weights compute.  See
        :mod:`repro.testkit.integrity` for stock corruptors."""
        corruptor(self._worker(index).expert)

    def swap_worker_expert(self, index: int, expert: Module) -> None:
        """Replace worker ``index``'s expert wholesale (stopping and
        restarting the worker so the install-time fingerprint is
        recomputed) — the stale-worker-after-redeploy scenario: the
        worker honestly stamps its *old* model's version and the master
        fences it."""
        worker = self._worker(index)
        self.crash_worker(index)
        worker.expert = expert
        worker._fingerprint = weights_fingerprint(expert)
        worker.start()

    def _worker(self, index: int) -> ExpertWorker:
        if not 1 <= index <= len(self.workers):
            raise IndexError(f"worker index must be 1..{len(self.workers)}, "
                             f"got {index}")
        return self.workers[index - 1]

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        if hasattr(self, "master"):
            self.master.close()
        for worker in self.workers:
            worker.stop()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class SimFailoverCluster:
    """A leased primary, hot standbys, and the fabric to fail over on.

    Expert 0 is the primary master at leadership epoch 1 (attached, so
    every worker's lease names it); the other experts are simulated
    workers.  ``n_standbys`` :class:`StandbyMaster` spares run with a
    deep copy of the primary's expert — *identical weights*, which is
    what makes post-failover answers byte-comparable to a no-failure
    run.  Workers and standbys read lease ages off the network's virtual
    clock, so "the lease expired" is a deterministic
    ``clock.advance(...)`` instead of a real-time sleep.
    """

    def __init__(self, experts: list[Module],
                 schedule: FaultSchedule | None = None, *,
                 n_standbys: int = 1,
                 lease: LeaseConfig | None = None,
                 store=None,
                 reply_timeout: float | None = 1.0,
                 resilience=None, degradation=None,
                 host: str = "sim", engine: str = "tape"):
        if len(experts) < 2:
            raise ValueError("a team needs >= 2 experts")
        if n_standbys < 1:
            raise ValueError("a failover cluster needs >= 1 standby")
        team_dtype(experts)
        self.experts = list(experts)
        self.network = SimNetwork(schedule)
        self.lease = lease if lease is not None else LeaseConfig()
        clock = lambda: self.network.clock.now  # noqa: E731
        self._clock_fn = clock
        self.workers: list[ExpertWorker] = []
        self.standbys: list[StandbyMaster] = []
        self.promoted: TeamNetMaster | None = None
        self._master_kwargs = dict(
            reply_timeout=reply_timeout,
            transport=self.network.transport,
            resilience=resilience or ResilienceConfig(reset_timeout=0.0),
            degradation=degradation, store=store, engine=engine)
        try:
            for expert in self.experts[1:]:
                worker = ExpertWorker(expert, host=host,
                                      transport=self.network.transport,
                                      engine=engine, clock=clock)
                worker.start()
                self.workers.append(worker)
            roster = {i: w.address
                      for i, w in enumerate(self.workers, start=1)}
            self.primary = TeamNetMaster(
                self.experts[0], [w.address for w in self.workers],
                epoch=1, leader_id="primary", **self._master_kwargs)
            for i in range(n_standbys):
                standby = StandbyMaster(
                    f"standby-{i}", expert=copy.deepcopy(self.experts[0]),
                    store=store, roster=roster,
                    transport=self.network.transport, host=host,
                    lease=self.lease, clock=clock, engine=engine)
                standby.start()
                self.standbys.append(standby)
            self.primary.standbys = [s.address for s in self.standbys]
            # The attach is the epoch-1 lease's first renewal: from here
            # on every worker fences anything below epoch 1.
            self.primary.attach()
        except BaseException:
            self.close()
            raise

    # -------------------------------------------------------------- access
    @property
    def clock(self):
        return self.network.clock

    @property
    def standby(self) -> StandbyMaster:
        return self.standbys[0]

    def serve(self, **kwargs):
        """A started TeamNetServer over the *primary* master."""
        return self.primary.serve(**kwargs)

    # ------------------------------------------------------------- failures
    def kill_primary(self) -> float:
        """Kill the primary the way a process death does: every worker
        connection severed abruptly (no SHUTDOWN courtesy), nothing else
        touched.  Returns the virtual kill time."""
        master = self.primary
        with master._lock:
            for peer in master._peers:
                peer.hang_up()
        return self.network.clock.now

    def expire_lease(self, slack: float = 1e-3) -> float:
        """Advance virtual time just past the lease duration so every
        worker's last renewal is stale; returns the new time."""
        return self.network.clock.advance(self.lease.duration_s + slack)

    # ------------------------------------------------------------ promotion
    def elect(self, priorities: list[float] | None = None,
              epoch: int | None = None) -> int:
        """Run the ring election among all standbys (concurrently — the
        ring blocks each rank on its predecessor); returns the winning
        rank, asserted identical on every participant."""
        members = [s.address for s in self.standbys]
        for standby in self.standbys:
            if standby.ring is None:
                standby.join_ring(members)
        if epoch is None:
            # Every rank must contest the *same* epoch or their tokens
            # live in different tag namespaces.  Real deployments get
            # there by each standby polling the workers (the lease view
            # reports the highest epoch on the team); the testkit just
            # takes the max across its in-process spares.
            epoch = max(s.max_epoch_seen for s in self.standbys) + 1
        results: list[int | None] = [None] * len(self.standbys)
        errors: list[BaseException] = []

        def run(rank: int, standby: StandbyMaster) -> None:
            try:
                results[rank] = standby.elect(
                    priority=None if priorities is None
                    else priorities[rank], epoch=epoch)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i, s), daemon=True)
                   for i, s in enumerate(self.standbys)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        if errors:
            raise errors[0]
        if len(set(results)) != 1 or results[0] is None:
            raise AssertionError(f"election disagreed: {results}")
        return results[0]

    def promote(self, rank: int | None = None, **master_kwargs
                ) -> TeamNetMaster:
        """Promote standby ``rank`` (default: the election winner, or 0
        with a single standby) to primary at the next epoch; re-attaches
        every worker, fencing the old primary off."""
        if rank is None:
            rank = 0 if len(self.standbys) == 1 else self.elect()
        kwargs = {k: v for k, v in self._master_kwargs.items()
                  if k not in ("transport", "store", "engine")}
        kwargs.update(master_kwargs)
        self.promoted = self.standbys[rank].promote(
            standbys=[s.address for s in self.standbys], **kwargs)
        return self.promoted

    # -------------------------------------------------------------- teardown
    def close(self) -> None:
        if self.promoted is not None:
            self.promoted.close()
        if hasattr(self, "primary"):
            self.primary.close()
        for standby in self.standbys:
            standby.stop()
        for worker in self.workers:
            worker.stop()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
