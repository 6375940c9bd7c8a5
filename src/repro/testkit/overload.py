"""Seeded overload soak: protected vs. unprotected under a 10× burst.

The overload layer's claims are *dynamic* — goodput under a burst,
recovery after it, queue-death without protection — which the scripted
sim fabric cannot exercise: its virtual clock charges transit, not
server occupancy, so a 10× open-loop schedule never actually queues.
This soak closes that gap with a deterministic event-driven serving
model that embeds the **real** control objects
(:class:`~repro.distributed.overload.AdmissionController`,
:class:`~repro.distributed.overload.BrownoutController`) and the real
shed rules (expired-at-assembly drops, LIFO under pressure) around an
explicit occupancy model: one server, micro-batches of up to
``max_batch`` requests, a batch of ``B`` requests holding the server
for ``base_service_s + B × per_request_s``.

One seeded Poisson arrival schedule — warm (1×), burst (10×), recover
(1×) — is run twice on identical arrivals:

* **protected** — AIMD admission, deadline sheds at batch assembly,
  LIFO ordering under limiter pressure, brownout ladder observing the
  pressure signal;
* **baseline** — unbounded FIFO, no deadline awareness (clients still
  time out; the server just never learns).

:func:`overload_round` asserts the acceptance gates: the protected run
sustains ≥ 70% of its warm goodput through the burst *and* through
recovery, answers within the deadline (p99 of answered requests), and
never starts service on an already-expired request, while the baseline
demonstrably queue-collapses — its recover-phase goodput is a small
fraction of the protected run's, because the burst backlog is still
being served to clients that hung up long ago.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..distributed.overload import (AdmissionController, BrownoutController,
                                    OverloadConfig)
from .crash import write_repro_artifact
from .guards import forbid_sockets

__all__ = ["OverloadSoakConfig", "PhaseStats", "OverloadSoakReport",
           "overload_round", "overload_soak", "DEFAULT_OVERLOAD_REPRO_DIR"]

DEFAULT_OVERLOAD_REPRO_DIR = ".testkit-repro"

#: the three phases of every soak schedule (rate multipliers of warm_rps)
PHASES = (("warm", 1.0), ("burst", 10.0), ("recover", 1.0))


@dataclass(frozen=True)
class OverloadSoakConfig:
    """Knobs for the soak's load and occupancy model.

    Defaults put warm traffic at roughly a third of batch-saturated
    capacity (8 requests per ~24 ms batch ≈ 330 rps) and the burst at
    ~3× capacity — deep enough overload that an unprotected queue
    builds tens of seconds of backlog during the burst phase.
    """

    warm_rps: float = 100.0
    phase_s: float = 20.0
    deadline_s: float = 0.25
    base_service_s: float = 0.008
    per_request_s: float = 0.002
    max_batch: int = 8
    overload: OverloadConfig = field(default_factory=OverloadConfig)

    def __post_init__(self):
        if self.warm_rps <= 0 or self.phase_s <= 0:
            raise ValueError("warm_rps and phase_s must be > 0")
        if self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if self.base_service_s < 0 or self.per_request_s <= 0:
            raise ValueError("service times must be >= 0 / > 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


@dataclass
class PhaseStats:
    """Per-phase counters for one run (protected or baseline)."""

    name: str
    offered: int = 0
    answered: int = 0          #: resolved within the deadline
    shed_admission: int = 0    #: denied by the AIMD limiter
    shed_expired: int = 0      #: dropped at batch assembly, already dead
    missed_deadline: int = 0   #: served, but past the deadline (stale)
    max_queue_depth: int = 0
    latencies_s: list = field(default_factory=list)

    def to_dict(self, phase_s: float) -> dict:
        lat = np.asarray(self.latencies_s, dtype=np.float64)
        return {
            "offered": self.offered,
            "offered_rps": round(self.offered / phase_s, 3),
            "answered": self.answered,
            "goodput_rps": round(self.answered / phase_s, 3),
            "shed_admission": self.shed_admission,
            "shed_expired": self.shed_expired,
            "missed_deadline": self.missed_deadline,
            "max_queue_depth": self.max_queue_depth,
            "p50_answered_ms": (round(float(np.percentile(lat, 50)) * 1e3, 3)
                                if lat.size else None),
            "p99_answered_ms": (round(float(np.percentile(lat, 99)) * 1e3, 3)
                                if lat.size else None),
        }


@dataclass
class OverloadSoakReport:
    """One seed's paired runs plus the gate-relevant aggregates."""

    seed: int
    config: OverloadSoakConfig
    protected: dict[str, PhaseStats]
    baseline: dict[str, PhaseStats]
    #: requests whose service *started* after their deadline had passed —
    #: the "expired request reaching an expert forward" event; must stay
    #: zero in the protected run
    forwards_on_expired_protected: int = 0
    forwards_on_expired_baseline: int = 0
    brownout_escalations: int = 0
    brownout_recoveries: int = 0
    brownout_transitions: list = field(default_factory=list)
    final_limit: int = 0

    def to_dict(self) -> dict:
        phase_s = self.config.phase_s
        return {
            "seed": self.seed,
            "warm_rps": self.config.warm_rps,
            "deadline_ms": round(self.config.deadline_s * 1e3, 3),
            "phase_s": phase_s,
            "protected": {name: stats.to_dict(phase_s)
                          for name, stats in self.protected.items()},
            "baseline": {name: stats.to_dict(phase_s)
                         for name, stats in self.baseline.items()},
            "forwards_on_expired_protected":
                self.forwards_on_expired_protected,
            "forwards_on_expired_baseline":
                self.forwards_on_expired_baseline,
            "brownout_escalations": self.brownout_escalations,
            "brownout_recoveries": self.brownout_recoveries,
            "final_limit": self.final_limit,
        }


class _Req:
    __slots__ = ("arrival", "deadline", "phase")

    def __init__(self, arrival: float, deadline: float, phase: int):
        self.arrival = arrival
        self.deadline = deadline
        self.phase = phase


def arrival_schedule(config: OverloadSoakConfig,
                     seed: int) -> list[tuple[float, int]]:
    """The seeded open-loop Poisson schedule: ``(time, phase index)``
    pairs, identical for the protected and baseline runs."""
    rng = np.random.default_rng((0x0AD5, seed))
    arrivals: list[tuple[float, int]] = []
    start = 0.0
    for phase, (_, multiplier) in enumerate(PHASES):
        rate = config.warm_rps * multiplier
        t = start
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= start + config.phase_s:
                break
            arrivals.append((t, phase))
        start += config.phase_s
    return arrivals


class _ServerSim:
    """Single-server batch-service model around the real controllers."""

    def __init__(self, config: OverloadSoakConfig, protected: bool):
        self.config = config
        self.protected = protected
        self.now = 0.0
        clock = lambda: self.now  # noqa: E731
        self.limiter = (AdmissionController(config.overload, clock=clock)
                        if protected else None)
        self.brownout = (BrownoutController(config.overload, clock=clock)
                         if protected else None)
        self.queue: deque[_Req] = deque()
        self.completion: tuple[float, list[_Req]] | None = None
        self.phases = {name: PhaseStats(name=name) for name, _ in PHASES}
        self.by_index = [self.phases[name] for name, _ in PHASES]
        self.forwards_on_expired = 0

    # ------------------------------------------------------------ service
    def _start_batch(self) -> None:
        cfg = self.config
        if self.protected and self.queue:
            # Expired-at-assembly shed: the worker-side pre-forward check
            # of the real runtime, in occupancy-model form.
            live: deque[_Req] = deque()
            for req in self.queue:
                if self.now >= req.deadline:
                    self.by_index[req.phase].shed_expired += 1
                    self.limiter.release()
                else:
                    live.append(req)
            self.queue = live
        if not self.queue:
            self.completion = None
            return
        lifo = (self.protected and self.limiter.pressure
                >= self.config.overload.lifo_pressure)
        pop = self.queue.pop if lifo else self.queue.popleft
        batch = [pop() for _ in range(min(cfg.max_batch, len(self.queue)))]
        for req in batch:
            if self.now >= req.deadline:
                self.forwards_on_expired += 1
        service = cfg.base_service_s + cfg.per_request_s * len(batch)
        self.completion = (self.now + service, batch)

    def _complete(self) -> None:
        done_at, batch = self.completion
        self.now = done_at
        for req in batch:
            if self.limiter is not None:
                self.limiter.release()
            stats = self.by_index[req.phase]
            if self.now <= req.deadline:
                stats.answered += 1
                stats.latencies_s.append(self.now - req.arrival)
            else:
                stats.missed_deadline += 1
        if self.limiter is not None:
            oldest = min(req.arrival for req in batch)
            self.limiter.on_sample(self.now - oldest)
            self.brownout.observe(self.limiter.pressure)
        self._start_batch()

    def _arrive(self, at: float, phase: int) -> None:
        self.now = at
        stats = self.by_index[phase]
        stats.offered += 1
        if self.limiter is not None and not self.limiter.try_acquire():
            stats.shed_admission += 1
            return
        self.queue.append(_Req(at, at + self.config.deadline_s, phase))
        stats.max_queue_depth = max(stats.max_queue_depth, len(self.queue))
        if self.completion is None:
            self._start_batch()

    # ---------------------------------------------------------------- run
    def run(self, arrivals: list[tuple[float, int]]) -> None:
        index = 0
        while True:
            next_arrival = (arrivals[index][0]
                            if index < len(arrivals) else None)
            next_done = (self.completion[0]
                         if self.completion is not None else None)
            if next_done is not None and (next_arrival is None
                                          or next_done <= next_arrival):
                self._complete()
            elif next_arrival is not None:
                self._arrive(*arrivals[index])
                index += 1
            else:
                # Arrivals exhausted and the server idle: drain done.
                # (An unprotected run reaches here only after chewing
                # through its entire burst backlog — served to clients
                # whose deadlines passed long ago.)
                return


def overload_round(seed: int,
                   config: OverloadSoakConfig | None = None
                   ) -> OverloadSoakReport:
    """One seeded overload case; asserts the acceptance gates.

    Gates (all on the same seeded arrival schedule):

    1. protected burst goodput ≥ 70% of protected warm goodput;
    2. protected recover goodput ≥ 70% of protected warm goodput —
       the system returns to baseline within the recover phase;
    3. protected p99 of *answered* requests ≤ the deadline (shedding
       must not masquerade as latency wins — what is answered is fast);
    4. zero expired requests start service in the protected run;
    5. the baseline queue-collapses: its recover goodput is < 30% of
       the protected run's (the burst backlog is still being served
       stale) and its burst backlog demonstrably outgrew the queue the
       protected run ever held.
    """
    config = config if config is not None else OverloadSoakConfig()
    arrivals = arrival_schedule(config, seed)
    protected = _ServerSim(config, protected=True)
    protected.run(arrivals)
    baseline = _ServerSim(config, protected=False)
    baseline.run(arrivals)

    report = OverloadSoakReport(
        seed=seed, config=config,
        protected=protected.phases, baseline=baseline.phases,
        forwards_on_expired_protected=protected.forwards_on_expired,
        forwards_on_expired_baseline=baseline.forwards_on_expired,
        brownout_escalations=protected.brownout.escalations,
        brownout_recoveries=protected.brownout.recoveries,
        brownout_transitions=list(protected.brownout.transitions),
        final_limit=protected.limiter.limit)

    warm = protected.phases["warm"]
    burst = protected.phases["burst"]
    recover = protected.phases["recover"]
    assert warm.answered > 0, "warm phase answered nothing"
    if burst.answered < 0.7 * warm.answered:
        raise AssertionError(
            f"protected burst goodput collapsed: {burst.answered} answered "
            f"vs {warm.answered} warm (need >= 70%)")
    if recover.answered < 0.7 * warm.answered:
        raise AssertionError(
            f"protected run did not recover: {recover.answered} answered "
            f"vs {warm.answered} warm (need >= 70%)")
    for stats in protected.phases.values():
        if stats.latencies_s:
            p99 = float(np.percentile(np.asarray(stats.latencies_s), 99))
            if p99 > config.deadline_s + 1e-9:
                raise AssertionError(
                    f"protected {stats.name} p99-of-answered {p99:.4f}s "
                    f"exceeds the deadline {config.deadline_s}s")
    if protected.forwards_on_expired:
        raise AssertionError(
            f"{protected.forwards_on_expired} expired requests reached "
            "service in the protected run (must be 0)")
    base_recover = baseline.phases["recover"]
    if base_recover.answered >= 0.3 * recover.answered:
        raise AssertionError(
            f"baseline did not queue-collapse: {base_recover.answered} "
            f"answered in recover vs protected {recover.answered}")
    base_depth = max(s.max_queue_depth for s in baseline.phases.values())
    prot_depth = max(s.max_queue_depth for s in protected.phases.values())
    if base_depth <= prot_depth:
        raise AssertionError(
            f"baseline queue ({base_depth}) never outgrew the protected "
            f"queue ({prot_depth}) — the burst did not overload it")
    return report


def overload_soak(seed: int = 0, rounds: int = 3,
                  config: OverloadSoakConfig | None = None,
                  repro_dir: str | None = None) -> dict:
    """Run ``rounds`` seeded overload cases; returns a summary.

    The first failing round writes a JSON repro artifact (seed + round +
    error + replay command) to ``repro_dir`` (default
    ``$OVERLOAD_REPRO_DIR`` or ``.testkit-repro/``) and re-raises.  Rounds run under
    :func:`~repro.testkit.guards.forbid_sockets` — the soak is a pure
    virtual-time model and must never touch the network.
    """
    summary = {"seed": seed, "rounds": rounds,
               "min_burst_goodput_ratio": None,
               "min_recover_goodput_ratio": None,
               "max_baseline_backlog": 0,
               "brownout_escalations": 0}
    for round_index in range(rounds):
        try:
            with forbid_sockets():
                report = overload_round(seed + round_index, config=config)
        except Exception as exc:
            path = write_repro_artifact(
                f"overload-seed{seed}-round{round_index}.json", {
                    "overload_seed": seed,
                    "round": round_index,
                    "error": repr(exc),
                    "replay":
                        "python -c \"from repro.testkit.overload import "
                        f"overload_round; overload_round({seed + round_index})"
                        "\"",
                }, repro_dir=repro_dir, env_var="OVERLOAD_REPRO_DIR",
                default_dir=DEFAULT_OVERLOAD_REPRO_DIR)
            raise AssertionError(
                f"overload round {round_index} failed "
                f"(repro: {path}): {exc}") from exc
        warm = report.protected["warm"].answered
        burst_ratio = report.protected["burst"].answered / warm
        recover_ratio = report.protected["recover"].answered / warm
        if (summary["min_burst_goodput_ratio"] is None
                or burst_ratio < summary["min_burst_goodput_ratio"]):
            summary["min_burst_goodput_ratio"] = round(burst_ratio, 4)
        if (summary["min_recover_goodput_ratio"] is None
                or recover_ratio < summary["min_recover_goodput_ratio"]):
            summary["min_recover_goodput_ratio"] = round(recover_ratio, 4)
        summary["max_baseline_backlog"] = max(
            summary["max_baseline_backlog"],
            max(s.max_queue_depth for s in report.baseline.values()))
        summary["brownout_escalations"] += report.brownout_escalations
    return summary
