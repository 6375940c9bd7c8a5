"""Resilience control plane for the TeamNet runtime.

The paper's latency argument (Section III, Figure 1(d)) assumes one
broadcast and one small reply per peer — a single slow or flapping edge
node erodes exactly the advantage TeamNet claims over MPI partitioning.
This module gives the master the machinery to keep answering *through*
crashes, flaps and stragglers, with a visible accuracy cost instead of a
silent one:

* :class:`SuspicionTracker` — a lightweight failure detector per peer:
  an EWMA of reply latency plus a miss counter folded into a suspicion
  score (a φ-accrual detector reduced to the two signals the gather
  actually produces).  Heartbeat ``ping``/``pong`` exchanges and gather
  outcomes both feed it.
* :class:`CircuitBreaker` — per-peer closed → open → half-open breaker
  replacing the bare reconnect-backoff clock: a flapping worker stops
  eating broadcast bytes and gather slots the moment it trips, and is
  only re-admitted after a successful probe.
* :class:`LatencyTracker` — sliding window of team reply latencies; its
  quantiles derive the *hedge delay* after which the master stops
  waiting on a suspected-slow peer and proceeds with the quorum it has.
* :class:`DegradationPolicy` — whether a short-handed team answers and
  how degraded an answer may get before it is flagged (or refused): a
  quorum of participating experts (the whole team by default) and an
  optional ceiling on the winning entropy.  Each expert only knows
  part of the data, so the caller must be able to see degradation.
* :class:`LeaderLease` / :class:`LeaseConfig` — the lease-based
  leadership record behind master failover: workers (and standby
  masters) remember the highest leadership epoch they have seen and when
  the leader last proved liveness; a lease older than
  ``LeaseConfig.duration_s`` means the leader is presumed dead and a hot
  standby may promote itself (:mod:`repro.distributed.failover`).
  Epochs only move forward, which is the fencing rule that keeps a
  deposed primary from answering as if it still led the team.

Everything here is runtime-agnostic state machinery (no sockets, no
threads); :mod:`repro.distributed.teamnet_runtime` wires it into the
broadcast/gather loop, and the deterministic testkit
(:mod:`repro.testkit`) exercises every transition without real sockets.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
           "CircuitBreaker", "SuspicionTracker", "LatencyTracker",
           "ResilienceConfig", "DegradationPolicy", "QuorumError",
           "PeerResilience", "LeaseConfig", "LeaderLease"]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class QuorumError(RuntimeError):
    """A degradation-policy violation under ``on_violation="raise"``:
    too few experts answered, or the winning entropy breached the
    ceiling.  The answer was computable but not trustworthy enough to
    return silently."""


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs for the failure detector, breakers and hedging.

    * ``failure_threshold`` — consecutive failures before a peer's
      breaker trips from closed to open.
    * ``reset_timeout`` / ``reset_timeout_max`` — how long an open
      breaker blocks traffic before allowing a half-open probe; doubles
      per re-trip up to the cap (this replaces the old reconnect
      backoff clock).  ``0`` means "probe immediately", which the
      simulation testkit uses so rejoin needs no real waiting.
    * ``hedging`` — master-side hedged gathers on/off.
    * ``hedge_quantile`` / ``hedge_multiplier`` / ``hedge_floor_s`` —
      the hedge delay is ``max(multiplier × Q(quantile), floor)`` over
      the recent team reply latencies.  The default (3 × median) keeps
      healthy peers unhedged — their latency sits near the median, well
      under the delay — while a 10× straggler is cut off early.
    * ``hedge_min_samples`` / ``latency_window`` — hedging only arms
      once the window holds enough samples to trust the quantile.
    * ``ewma_alpha`` / ``success_decay`` / ``suspicion_threshold`` —
      failure-detector smoothing: each miss adds 1 to the suspicion
      score, each success multiplies it by ``success_decay``; a peer is
      *suspect* at ``score >= suspicion_threshold``.
    * ``heartbeat_timeout`` — per-probe reply deadline for
      :meth:`~repro.distributed.teamnet_runtime.TeamNetMaster.heartbeat`.
    * ``backoff_jitter`` / ``jitter_seed`` — seeded jitter fraction on
      every breaker's OPEN window (the reconnect/redeploy backoff
      clock).  Workers that died together — a rack power blip, a
      partition healing — would otherwise all retry in lockstep,
      hammering the recovering side at exactly the wrong moment; each
      peer jitters its windows by up to ``±backoff_jitter`` of their
      nominal length, from a per-peer RNG seeded with
      ``(jitter_seed, peer index)`` so testkit schedules stay
      reproducible.  0 (default) keeps the exact legacy windows.
    """

    failure_threshold: int = 3
    reset_timeout: float = 0.25
    reset_timeout_max: float = 5.0
    hedging: bool = True
    hedge_quantile: float = 0.5
    hedge_multiplier: float = 3.0
    hedge_floor_s: float = 0.02
    hedge_min_samples: int = 8
    latency_window: int = 128
    ewma_alpha: float = 0.2
    success_decay: float = 0.5
    suspicion_threshold: float = 2.0
    heartbeat_timeout: float = 0.25
    backoff_jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout < 0 or self.reset_timeout_max < self.reset_timeout:
            raise ValueError("need 0 <= reset_timeout <= reset_timeout_max")
        if not 0.0 < self.hedge_quantile < 1.0:
            raise ValueError("hedge_quantile must be in (0, 1)")
        if self.hedge_multiplier <= 0 or self.hedge_floor_s < 0:
            raise ValueError("hedge_multiplier must be > 0 and "
                             "hedge_floor_s >= 0")
        if self.hedge_min_samples < 1 or self.latency_window < 1:
            raise ValueError("hedge_min_samples and latency_window "
                             "must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0.0 <= self.success_decay < 1.0:
            raise ValueError("success_decay must be in [0, 1)")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must be in [0, 1)")

    def breaker_rng(self, peer_index: int) -> np.random.Generator | None:
        """The seeded per-peer jitter stream for one breaker (None when
        jitter is disabled) — every rebuild of peer ``i``'s breaker must
        come back here so the stream stays tied to the slot, not to the
        object lifetime."""
        if self.backoff_jitter <= 0.0:
            return None
        return np.random.default_rng((self.jitter_seed, peer_index))


@dataclass(frozen=True)
class DegradationPolicy:
    """When a short-handed team may still answer, and how degraded that
    answer may get before it stops being silent.

    * ``min_quorum`` — minimum number of participating experts (master
      included) required for an answer.  ``None`` (the default) is the
      whole team: any missing peer raises ``WorkerFailure`` and nobody
      is hedged.  An integer lets the master answer from whoever replied.
    * ``max_entropy`` — per-sample ceiling on the *winning* predictive
      entropy; an answer whose least-uncertain expert is still this
      uncertain is no answer at all.  ``None`` disables the check.
    * ``on_violation`` — ``"flag"`` records the violations in
      ``InferenceStats.violations`` and returns the degraded answer;
      ``"raise"`` refuses it with :class:`QuorumError`.
    """

    min_quorum: int | None = None
    max_entropy: float | None = None
    on_violation: str = "flag"

    def __post_init__(self):
        if self.min_quorum is not None and self.min_quorum < 1:
            raise ValueError("min_quorum must be >= 1 (the master always "
                             "participates) or None (the whole team)")
        if self.max_entropy is not None and self.max_entropy < 0:
            raise ValueError("max_entropy must be >= 0 or None")
        if self.on_violation not in ("flag", "raise"):
            raise ValueError("on_violation must be 'flag' or 'raise', "
                             f"got {self.on_violation!r}")

    def violations(self, participants: int,
                   max_winner_entropy: float | None) -> list[str]:
        """Human-readable policy breaches for one inference (empty =
        the answer is acceptable).  A whole-team policy has no quorum to
        breach here: a missing peer already failed the inference, and a
        peer that shed the request for deadline is load shedding, not a
        missing answer."""
        found = []
        if self.min_quorum is not None and participants < self.min_quorum:
            found.append(f"quorum: {participants} participant(s) < "
                         f"min_quorum {self.min_quorum}")
        if (self.max_entropy is not None and max_winner_entropy is not None
                and max_winner_entropy > self.max_entropy):
            found.append(f"entropy: winning entropy {max_winner_entropy:.4f} "
                         f"> ceiling {self.max_entropy:.4f}")
        return found


class CircuitBreaker:
    """Per-peer circuit breaker: closed → open → half-open.

    CLOSED admits traffic and counts consecutive failures; at
    ``failure_threshold`` it trips OPEN.  OPEN admits nothing until
    ``reset_timeout`` elapses (doubling per re-trip, capped at
    ``reset_timeout_max``), then HALF-OPEN admits a single probe: a
    success closes the breaker and resets the timeout, a failure
    re-opens it with a longer one.  ``clock`` is injectable so the
    state machine is unit-testable without sleeping.

    ``jitter``/``rng`` de-synchronize the OPEN windows: each trip's
    window is scaled by a factor drawn uniformly from ``[1 - jitter,
    1 + jitter]``, so peers that failed in the same instant (their
    breakers all tripped on one partition) spread their half-open
    probes out instead of dialing back in a synchronized storm.  The
    *nominal* window (base, doubling, cap) is tracked unjittered —
    jitter perturbs each wait, never the backoff trajectory.  Seed the
    RNG per peer (``ResilienceConfig.breaker_rng``) and the whole
    storm stays deterministic for the testkit.
    """

    __slots__ = ("failure_threshold", "reset_timeout", "reset_timeout_max",
                 "jitter", "_rng", "_clock", "_state",
                 "_consecutive_failures", "_opened_at", "_timeout",
                 "_window", "trips")

    def __init__(self, failure_threshold: int = 3, reset_timeout: float = 0.25,
                 reset_timeout_max: float = 5.0, clock=time.monotonic,
                 jitter: float = 0.0, rng=None):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.reset_timeout_max = reset_timeout_max
        self.jitter = jitter
        self._rng = rng if rng is not None else (
            np.random.default_rng(0) if jitter > 0.0 else None)
        self._clock = clock
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._timeout = 0.0
        self._window = 0.0
        self.trips = 0

    @property
    def state(self) -> str:
        """Current state; an elapsed OPEN window promotes to HALF-OPEN."""
        if (self._state == BREAKER_OPEN
                and self._clock() >= self._opened_at + self._window):
            self._state = BREAKER_HALF_OPEN
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    @property
    def open_timeout_s(self) -> float:
        """The current OPEN window length (grows per re-trip; includes
        this trip's jitter)."""
        return self._window

    def allow(self) -> bool:
        """May traffic (a broadcast, a reconnect, a probe) flow now?"""
        return self.state != BREAKER_OPEN

    def record_success(self) -> None:
        """A round-trip succeeded: close the breaker and reset."""
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._timeout = 0.0
        self._window = 0.0

    def record_failure(self) -> None:
        """A round-trip failed; trips the breaker at the threshold, and
        a half-open probe failure re-opens immediately."""
        self._consecutive_failures += 1
        if (self._state == BREAKER_HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold):
            self._timeout = (self.reset_timeout if self._timeout <= 0.0
                             else min(self._timeout * 2,
                                      self.reset_timeout_max))
            self._window = self._timeout
            if self._rng is not None and self.jitter > 0.0:
                # Scale this wait only; the nominal doubling trajectory
                # above is what the next trip builds on.
                self._window *= 1.0 + self.jitter * float(
                    self._rng.uniform(-1.0, 1.0))
            self._opened_at = self._clock()
            self._state = BREAKER_OPEN
            self.trips += 1


class SuspicionTracker:
    """Failure-detector state for one peer.

    Two signals, both produced by the gather/heartbeat loop anyway: the
    EWMA of observed reply latency (how slow the peer has been) and a
    decaying miss count (how flaky it has been).  Each miss adds 1 to
    the score; each success multiplies it by ``decay``; ``suspect``
    trips at ``threshold``.  The EWMA is only updated from real reply
    latencies — heartbeat pongs carry no expert compute, so they decay
    the score without polluting the latency estimate.
    """

    __slots__ = ("alpha", "decay", "threshold", "score", "ewma_latency_s",
                 "misses", "observations")

    def __init__(self, alpha: float = 0.2, decay: float = 0.5,
                 threshold: float = 2.0):
        self.alpha = alpha
        self.decay = decay
        self.threshold = threshold
        self.score = 0.0
        self.ewma_latency_s: float | None = None
        self.misses = 0
        self.observations = 0

    def observe(self, latency_s: float | None = None) -> None:
        """Record a successful round-trip (optionally with its reply
        latency); successes decay the suspicion score."""
        self.score *= self.decay
        self.observations += 1
        if latency_s is not None:
            latency_s = float(latency_s)
            if self.ewma_latency_s is None:
                self.ewma_latency_s = latency_s
            else:
                self.ewma_latency_s += self.alpha * (latency_s
                                                     - self.ewma_latency_s)

    def miss(self) -> None:
        """Record a miss (timeout, connection failure, hedge cutoff)."""
        self.misses += 1
        self.score += 1.0

    @property
    def suspect(self) -> bool:
        return self.score >= self.threshold


class LatencyTracker:
    """Sliding window of reply latencies with quantile queries.

    The master feeds every successful reply latency (all peers pooled)
    into one tracker; its quantile derives the hedge delay, so the
    definition of "slow" tracks the team's current conditions instead of
    a hand-tuned constant.
    """

    def __init__(self, window: int = 128):
        if window < 1:
            raise ValueError("window must be >= 1")
        self._samples: deque[float] = deque(maxlen=window)

    def add(self, latency_s: float) -> None:
        self._samples.append(float(latency_s))

    def __len__(self) -> int:
        return len(self._samples)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of the window (requires >= 1 sample)."""
        if not self._samples:
            raise ValueError("no latency samples recorded yet")
        return float(np.quantile(np.fromiter(self._samples, dtype=float), q))


@dataclass(frozen=True)
class LeaseConfig:
    """Timing contract for lease-based leadership.

    * ``duration_s`` — how long one renewal (a leader heartbeat, attach,
      or broadcast) keeps the lease alive.  A worker whose lease is
      older than this reports the leader as presumed dead, and a standby
      observing that on every reachable worker may start an election.
    * ``promotion_multiple`` — the recovery-time budget, as a multiple
      of ``duration_s``: detection → election → re-attach → first served
      answer must fit inside ``duration_s * promotion_multiple``.  The
      failover benchmark gates on it.
    """

    duration_s: float = 0.5
    promotion_multiple: float = 4.0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ValueError("duration_s must be > 0")
        if self.promotion_multiple < 1:
            raise ValueError("promotion_multiple must be >= 1")

    @property
    def recovery_budget_s(self) -> float:
        """The gated end-to-end recovery time."""
        return self.duration_s * self.promotion_multiple


class LeaderLease:
    """One node's record of the current leader and its lease.

    Pure clock-injected state machine (no threads, no sockets): the
    runtime calls :meth:`renew` when a master proves liveness with an
    epoch, and :meth:`age`/:meth:`expired` answer "how stale is the
    leadership claim?".  The **fencing rule** lives here: a renewal with
    an epoch lower than the highest seen is refused — the caller turns
    that refusal into a ``stale_epoch`` error reply, which is what
    deposes a zombie primary.  Epoch 0 means "no leader ever seen".
    """

    __slots__ = ("leader", "epoch", "renewed_at")

    def __init__(self, leader: str | None = None, epoch: int = 0):
        self.leader = leader
        self.epoch = int(epoch)
        self.renewed_at: float | None = None

    def renew(self, leader: str | None, epoch: int, now: float) -> bool:
        """Record a liveness proof from ``leader`` at ``epoch``.

        Returns False (and changes nothing) when ``epoch`` is below the
        highest epoch seen — the stale claim must be fenced off.  An
        equal epoch refreshes the timestamp (the same leader renewing);
        a higher one installs the new leader.
        """
        epoch = int(epoch)
        if epoch < self.epoch:
            return False
        if epoch > self.epoch:
            self.epoch = epoch
            self.leader = leader
        elif leader is not None:
            self.leader = leader
        self.renewed_at = float(now)
        return True

    def age(self, now: float) -> float | None:
        """Seconds since the last renewal (None if never renewed)."""
        if self.renewed_at is None:
            return None
        return max(0.0, float(now) - self.renewed_at)

    def expired(self, now: float, duration_s: float) -> bool:
        """Is the leadership claim stale under ``duration_s``?  A lease
        never renewed counts as expired (no leader is a dead leader)."""
        age = self.age(now)
        return age is None or age > duration_s

    def __repr__(self) -> str:
        return (f"LeaderLease(leader={self.leader!r}, epoch={self.epoch}, "
                f"renewed_at={self.renewed_at})")


@dataclass(frozen=True)
class PeerResilience:
    """Read-only snapshot of one peer's control-plane state, as exposed
    by ``TeamNetMaster.resilience_snapshot()`` and rendered by
    :func:`repro.edge.monitor.resilience_table`."""

    index: int
    address: tuple[str, int]
    alive: bool
    breaker_state: str
    consecutive_failures: int
    breaker_trips: int
    suspicion_score: float
    suspect: bool
    ewma_reply_latency_s: float | None
    replies: int
    failures: int
    timeouts: int
    hedges: int
    reconnects: int
    redeployments: int = 0
    # Data-plane integrity (repro.distributed.integrity); all defaulted
    # so snapshots from masters without an integrity layer still build.
    invalid_replies: int = 0
    quarantined: bool = False
    quarantines: int = 0
    quarantine_reason: str | None = None
    canary_failures: int = 0
    readmissions: int = 0
    # Overload control (repro.distributed.overload): deadline-shed work
    # this peer reported instead of computing.  Defaulted for snapshots
    # from masters predating the overload layer.
    expired_replies: int = 0
    expired_segments: int = 0
