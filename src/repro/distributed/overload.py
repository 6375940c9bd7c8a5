"""Overload control for the TeamNet serving path.

The runtime survives crashes, corruption and a dying master — but until
this module it had no defense against *load*.  Admission was one static
queue bound, workers happily computed replies whose clients had already
timed out, and every retry mechanism (reconnects, redeploys, hedges,
failover re-drives) amplified traffic exactly when the cluster could
least afford it — the classic recipe for metastable failure, where a
transient burst leaves the system grinding through a backlog of requests
nobody is waiting for anymore.

Four cooperating mechanisms, all plain clock-injected state machines
(no threads, no sockets — the runtime wires them in):

* **Deadline budgets** — every request can carry a relative deadline
  budget; it travels on the broadcast meta (``deadline_budget_s`` /
  ``sent_at``) so an :class:`~repro.distributed.teamnet_runtime
  .ExpertWorker` can shed expired work *before* running the expert and
  answer with a typed ``EXPIRED`` reply instead of a wasted forward.
  :func:`remaining_budget` is the one shared definition of "how much is
  left" (transit time is charged only when the clocks are comparable —
  elapsed time is clamped at zero so clock skew can never *extend* a
  budget).
* :class:`AdmissionController` — an AIMD concurrency limiter replacing
  the static queue bound: outstanding work is capped by a limit that
  grows additively while observed serve latency meets the target and
  halves when it doesn't, so admission sheds early (cheap) instead of
  the gather shedding late (expensive).  Its ``pressure`` signal — an
  EWMA of "recent samples over target" in [0, 1] — is what the brownout
  ladder and the LIFO-under-overload queue ordering key off.
* :class:`RetryBudget` — a token bucket shared by every retry-shaped
  expense (reconnect dials, redeploy pushes, hedged gathers, failover
  re-drives).  When the bucket is dry, retries fail fast rather than
  multiplying load on a struggling cluster; it refills with time, so a
  genuinely recovered cluster gets its retries back.
* :class:`BrownoutController` — sustained pressure walks a degradation
  ladder one deliberate step at a time: first hedging turns off (stop
  spending speculative work), then the quorum floor drops (answer from
  fewer experts), then batch linger goes to zero (stop waiting for
  company).  Recovery retraces the same steps in reverse, and every
  transition is recorded for ``resilience_snapshot()`` /
  ``edge.resilience_table`` visibility.

:class:`DeadlineExpired` is the typed rejection a shed request's future
fails with — callers can tell "the system was too slow for your
deadline" from a real failure.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace

__all__ = ["OverloadConfig", "AdmissionController", "RetryBudget",
           "BrownoutController", "DeadlineExpired", "remaining_budget",
           "BROWNOUT_LEVELS"]

#: The brownout ladder, mildest first.  Escalation walks right one rung
#: at a time under sustained pressure; recovery walks back left.
BROWNOUT_LEVELS = ("normal", "hedge-off", "quorum-min", "linger-off")


class DeadlineExpired(RuntimeError):
    """The request's deadline budget ran out before an answer could be
    produced.  Raised at submit (budget already spent), at dispatch (it
    expired while queued), or at resolution (the answer landed too
    late).  This is load shedding, not a fault — breakers and failure
    detectors must never trip on it."""


def remaining_budget(budget_s: float | None, sent_at: float | None,
                     now: float) -> float | None:
    """How much of a relative deadline budget is left at ``now``.

    ``sent_at`` is the sender's clock when the budget was stamped; the
    elapsed charge is clamped at zero so a receiver whose clock runs
    behind the sender's can only *shorten* a budget, never stretch it.
    ``None`` budget means "no deadline" and passes through.
    """
    if budget_s is None:
        return None
    if sent_at is None:
        return float(budget_s)
    return float(budget_s) - max(0.0, now - float(sent_at))


@dataclass(frozen=True)
class OverloadConfig:
    """Tuning knobs for admission, pressure, brownout and retry budgets.

    * ``target_latency_s`` — the serve-latency target the AIMD limiter
      steers toward: samples at or under it grow the limit additively,
      samples over it halve the limit.
    * ``min_limit`` / ``max_limit`` / ``initial_limit`` — bounds and
      starting point of the concurrency limit (outstanding requests:
      queued + in flight).
    * ``additive_increase`` / ``multiplicative_decrease`` — the AIMD
      step sizes.
    * ``pressure_alpha`` — EWMA smoothing of the binary over-target
      signal into the ``pressure`` reading in [0, 1].
    * ``lifo_pressure`` — above this pressure the serving queue pops
      newest-first: under overload a fresh request with a live deadline
      beats a stale one that will expire anyway.
    * ``brownout_enter`` / ``brownout_exit`` / ``brownout_dwell`` —
      ladder hysteresis: ``dwell`` consecutive pressure samples above
      ``enter`` escalate one level, the same count below ``exit``
      recovers one level.  ``enter > exit`` keeps the ladder from
      flapping at the boundary.
    * ``retry_capacity`` / ``retry_refill_rate`` — the shared token
      bucket for retries: burst allowance and tokens-per-second refill.
    """

    target_latency_s: float = 0.05
    min_limit: int = 1
    max_limit: int = 256
    initial_limit: int = 16
    additive_increase: float = 1.0
    multiplicative_decrease: float = 0.5
    pressure_alpha: float = 0.2
    lifo_pressure: float = 0.5
    brownout_enter: float = 0.7
    brownout_exit: float = 0.3
    brownout_dwell: int = 3
    retry_capacity: float = 8.0
    retry_refill_rate: float = 0.5

    def __post_init__(self):
        if self.target_latency_s <= 0:
            raise ValueError("target_latency_s must be > 0")
        if not 1 <= self.min_limit <= self.initial_limit <= self.max_limit:
            raise ValueError("need 1 <= min_limit <= initial_limit "
                             "<= max_limit")
        if self.additive_increase <= 0:
            raise ValueError("additive_increase must be > 0")
        if not 0.0 < self.multiplicative_decrease < 1.0:
            raise ValueError("multiplicative_decrease must be in (0, 1)")
        if not 0.0 < self.pressure_alpha <= 1.0:
            raise ValueError("pressure_alpha must be in (0, 1]")
        if not 0.0 <= self.lifo_pressure <= 1.0:
            raise ValueError("lifo_pressure must be in [0, 1]")
        if not 0.0 <= self.brownout_exit < self.brownout_enter <= 1.0:
            raise ValueError("need 0 <= brownout_exit < brownout_enter <= 1")
        if self.brownout_dwell < 1:
            raise ValueError("brownout_dwell must be >= 1")
        if self.retry_capacity < 0 or self.retry_refill_rate < 0:
            raise ValueError("retry_capacity and retry_refill_rate "
                             "must be >= 0")


class AdmissionController:
    """AIMD concurrency limiter over outstanding (queued + in-flight)
    requests.

    ``try_acquire`` admits while ``outstanding < limit`` and counts a
    shed otherwise; ``release`` returns the slot when the request
    settles (answered, failed, or shed later in the pipeline).  The
    limit adapts from observed serve latency (enqueue to answer, which
    the gather dominates when the queue is short): each sample at or
    under ``target_latency_s`` adds ``additive_increase``, each sample
    over it multiplies by ``multiplicative_decrease`` — so a backed-up
    pipeline shrinks its own admission window until latency meets the
    target again.

    ``pressure`` is the EWMA (``pressure_alpha``) of the binary
    over-target signal: 0 means recent samples all met the target, 1
    means none did.  Thread-safe; ``clock`` is injectable but only used
    for snapshots (the AIMD math is sample-driven, not time-driven).
    """

    def __init__(self, config: OverloadConfig | None = None,
                 clock=time.monotonic):
        self.config = config if config is not None else OverloadConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._limit = float(self.config.initial_limit)
        self._outstanding = 0
        self._pressure = 0.0
        self.admitted = 0
        self.shed = 0
        self.samples = 0
        self.increases = 0
        self.decreases = 0

    @property
    def limit(self) -> int:
        """The current admission limit (outstanding requests)."""
        with self._lock:
            return int(self._limit)

    @property
    def outstanding(self) -> int:
        with self._lock:
            return self._outstanding

    @property
    def pressure(self) -> float:
        """Smoothed overload signal in [0, 1] (see class docstring)."""
        with self._lock:
            return self._pressure

    def try_acquire(self) -> bool:
        """Admit one request if the limit allows; False = shed it."""
        with self._lock:
            if self._outstanding >= int(self._limit):
                self.shed += 1
                return False
            self._outstanding += 1
            self.admitted += 1
            return True

    def release(self) -> None:
        """Return one admitted request's slot (idempotence is the
        caller's job — settle-once futures give it for free)."""
        with self._lock:
            if self._outstanding > 0:
                self._outstanding -= 1

    def on_sample(self, latency_s: float) -> None:
        """Feed one observed serve latency into the AIMD update."""
        cfg = self.config
        over = float(latency_s) > cfg.target_latency_s
        with self._lock:
            self.samples += 1
            if over:
                self._limit = max(float(cfg.min_limit),
                                  self._limit * cfg.multiplicative_decrease)
                self.decreases += 1
            else:
                self._limit = min(float(cfg.max_limit),
                                  self._limit + cfg.additive_increase)
                self.increases += 1
            self._pressure += cfg.pressure_alpha * (float(over)
                                                    - self._pressure)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "limit": int(self._limit),
                "outstanding": self._outstanding,
                "pressure": self._pressure,
                "admitted": self.admitted,
                "shed": self.shed,
                "samples": self.samples,
                "increases": self.increases,
                "decreases": self.decreases,
            }


class RetryBudget:
    """A token bucket shared by every retry-shaped expense.

    Reconnect dials, redeploy pushes, hedged gathers and failover
    re-drives all draw from one bucket of ``capacity`` tokens refilled
    at ``refill_rate`` tokens/second — so the *total* retry pressure a
    master can put on a struggling cluster is bounded, no matter how
    many mechanisms want to retry at once.  ``try_spend`` either takes
    the tokens or refuses (the caller fails fast); ``available()`` peeks
    without spending (hedging uses it to pause speculation while the
    bucket is dry).  Thread-safe, clock-injected.
    """

    def __init__(self, capacity: float = 8.0, refill_rate: float = 0.5,
                 clock=time.monotonic):
        if capacity < 0 or refill_rate < 0:
            raise ValueError("capacity and refill_rate must be >= 0")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(capacity)
        self._refilled_at = float(clock())
        self.spent = 0
        self.denied = 0

    @classmethod
    def from_config(cls, config: OverloadConfig,
                    clock=time.monotonic) -> "RetryBudget":
        return cls(capacity=config.retry_capacity,
                   refill_rate=config.retry_refill_rate, clock=clock)

    def _refill(self, now: float) -> None:
        """Caller holds ``_lock``."""
        elapsed = max(0.0, now - self._refilled_at)
        self._refilled_at = now
        self._tokens = min(self.capacity,
                           self._tokens + elapsed * self.refill_rate)

    def try_spend(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` from the bucket, or refuse without taking."""
        if tokens < 0:
            raise ValueError("tokens must be >= 0")
        with self._lock:
            self._refill(self._clock())
            if self._tokens < tokens:
                self.denied += 1
                return False
            self._tokens -= tokens
            self.spent += 1
            return True

    def available(self) -> float:
        """Current token count (refreshes the refill, spends nothing)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens

    def snapshot(self) -> dict:
        with self._lock:
            self._refill(self._clock())
            return {
                "tokens": self._tokens,
                "capacity": self.capacity,
                "refill_rate": self.refill_rate,
                "spent": self.spent,
                "denied": self.denied,
            }


class BrownoutController:
    """Walks the brownout ladder from the limiter's pressure signal.

    Feed every pressure sample through :meth:`observe`.  ``dwell``
    consecutive samples above ``brownout_enter`` escalate one rung of
    :data:`BROWNOUT_LEVELS`; the same count below ``brownout_exit``
    recovers one rung.  One rung per dwell window in either direction —
    degradation is deliberate and staged, and recovery retraces the
    exact same steps in reverse, so the system never jumps from
    "healthy" to "minimum quorum" (or back) on one noisy sample.

    The controller also says what each rung allows
    (:meth:`allowance`, :meth:`linger_s`); the serving layer hands that
    to each batch it dispatches, so the master holds no brownout state.
    """

    def __init__(self, config: OverloadConfig | None = None,
                 clock=time.monotonic):
        self.config = config if config is not None else OverloadConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._level = 0
        self._above = 0
        self._below = 0
        self.escalations = 0
        self.recoveries = 0
        #: every transition as ``(time, from_level, to_level, pressure)``
        self.transitions: list[tuple[float, int, int, float]] = []

    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    @property
    def level_name(self) -> str:
        return BROWNOUT_LEVELS[self.level]

    def allowance(self, policy):
        """What a batch dispatched now may do: ``(hedge, policy)``.

        Rung 1 turns hedging off (a hedge turns slowness into failures
        and reconnects); rung 2 lowers the ``DegradationPolicy``'s
        integer quorum floor to 1.  A whole-team policy stays whole."""
        level = self.level
        if level >= 2 and policy.min_quorum is not None:
            policy = replace(policy, min_quorum=1)
        return level < 1, policy

    def linger_s(self, configured: float) -> float:
        """Rung 3 turns batch linger off: lingering only ages deadlines."""
        return 0.0 if self.level >= 3 else configured

    def observe(self, pressure: float) -> tuple[int, int] | None:
        """Feed one pressure sample; returns ``(from, to)`` when this
        sample caused a level transition, else None."""
        cfg = self.config
        with self._lock:
            if pressure > cfg.brownout_enter:
                self._above += 1
                self._below = 0
            elif pressure < cfg.brownout_exit:
                self._below += 1
                self._above = 0
            else:
                self._above = 0
                self._below = 0
            transition = None
            if (self._above >= cfg.brownout_dwell
                    and self._level < len(BROWNOUT_LEVELS) - 1):
                transition = (self._level, self._level + 1)
                self._level += 1
                self._above = 0
                self.escalations += 1
            elif self._below >= cfg.brownout_dwell and self._level > 0:
                transition = (self._level, self._level - 1)
                self._level -= 1
                self._below = 0
                self.recoveries += 1
            if transition is not None:
                self.transitions.append((float(self._clock()),
                                         transition[0], transition[1],
                                         float(pressure)))
            return transition

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "level": self._level,
                "level_name": BROWNOUT_LEVELS[self._level],
                "escalations": self.escalations,
                "recoveries": self.recoveries,
                "transitions": [list(t) for t in self.transitions],
            }
