"""Concurrent micro-batched serving on top of :class:`TeamNetMaster`.

The master's ``infer`` is one synchronous broadcast/gather; a deployed
edge team serves *many users at once* (the CANS regime).  This module
adds that layer without touching the protocol:

* **Bounded admission** — :meth:`TeamNetServer.submit` enqueues a request
  and returns a :class:`ServeFuture`; a full queue rejects with
  :class:`ServerOverloaded` (open-loop load must shed, not silently grow
  an unbounded backlog).
* **Micro-batch coalescing** — the dispatcher drains whatever compatible
  requests are queued (same feature shape, up to ``max_batch``) into
  one broadcast.  The batch is cast to the team dtype once, as a whole,
  so callers' float dtypes never split a batch.  The nn engine is
  batched: a 64-request batch costs barely more than one, so one wire
  exchange per worker now serves the whole batch.
* **Pipelining** — broadcasts don't wait for earlier gathers.  The
  dispatcher keeps up to ``max_inflight`` batches on the wire (per-seq
  reply slots on each connection, via :class:`repro.comm.ReplyDemux`)
  while the collector finishes them in order, reading the replies off
  the sockets itself as they land.

Bit-exactness: with ``coalesce="exact"`` (the default) a coalesced
request's rows are forwarded *per request* on every expert — the wire
carries one message with a ``segments`` row-count list, and each segment
runs as its own forward — so every answer is byte-identical to a
sequential ``master.infer`` of the same input.  ``coalesce="fused"``
runs the whole batch as a single forward instead: fastest, and argmax/
argmin answers agree in practice, but float probabilities can drift by
ULPs across batch compositions (BLAS reductions are not row-stable), so
the differential guarantee only holds for ``"exact"``.

Resilience semantics carry over unchanged: each batched gather runs the
same hedging, breaker, degradation and stats bookkeeping as a plain
``infer`` — a failure (``WorkerFailure``/``QuorumError``) rejects every
request in the affected batch, and each request's future carries the
batch's :class:`~repro.distributed.teamnet_runtime.InferenceStats`.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.inference import expert_forward_segments
from .overload import (AdmissionController, BrownoutController,
                       DeadlineExpired, OverloadConfig)
from .teamnet_runtime import InferenceStats, TeamNetMaster

__all__ = ["ServeFuture", "ServerStats", "ServerClosed", "ServerOverloaded",
           "RequestAbandoned", "TeamNetServer"]


class ServerClosed(RuntimeError):
    """submit() after close() — the server no longer admits requests."""


class ServerOverloaded(RuntimeError):
    """The request was shed at admission, not queued.

    Carries the shed context so callers and benches can distinguish
    causes without parsing the message: ``queue_depth`` (requests queued
    at the moment of rejection), ``limit`` (the admission limit in force
    — the AIMD limiter's when overload control is on, ``max_queue``
    otherwise) and ``oldest_age_s`` (how long the oldest queued request
    has been waiting; the queue-death telltale)."""

    def __init__(self, message: str, queue_depth: int | None = None,
                 limit: int | None = None,
                 oldest_age_s: float | None = None):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.limit = limit
        self.oldest_age_s = oldest_age_s


class RequestAbandoned(RuntimeError):
    """``result()`` on a future its caller already :meth:`abandoned
    <ServeFuture.abandon>`."""


class ServeFuture:
    """The pending answer for one submitted request.

    ``result()`` returns ``(preds, winner, stats)`` exactly as
    ``master.infer`` would for this request alone — ``preds``/``winner``
    are this request's rows of the batch answer; ``stats`` is the shared
    :class:`InferenceStats` of the coalesced gather that served it.
    ``done_at`` is the ``time.monotonic()`` completion stamp (set before
    waiters wake), which is what lets an open-loop driver measure sojourn
    without racing the wakeup.

    A caller that gives up on a timed-out request should
    :meth:`abandon` it: the request stays in flight (the broadcast is
    already on the wire), but its eventual fate is *accounted* — an
    answer landing on an abandoned future bumps
    ``ServerStats.late_resolutions`` instead of vanishing silently, and
    subsequent ``result()`` calls raise :class:`RequestAbandoned`.

    ``state`` is one of ``"pending"``, ``"done"``, ``"failed"``,
    ``"abandoned"`` (terminal for the caller even if a late outcome is
    recorded underneath).  ``request_id`` is the stable id the failover
    layer tags re-drives with (None for plain submissions).
    """

    __slots__ = ("done_at", "request_id", "deadline_at", "_event", "_value",
                 "_error", "_abandoned", "_callbacks", "_lock",
                 "_abandon_hook")

    def __init__(self, request_id: int | None = None,
                 deadline_at: float | None = None):
        self.done_at: float | None = None
        self.request_id = request_id
        #: absolute deadline on the server's clock (None = no deadline);
        #: set at admission, read by the dispatcher (to compute remaining
        #: wire budgets) and the collector (to shed answers that landed
        #: too late)
        self.deadline_at = deadline_at
        self._event = threading.Event()
        self._value: tuple | None = None
        self._error: BaseException | None = None
        self._abandoned = False
        self._callbacks: list = []
        self._lock = threading.Lock()
        self._abandon_hook = None

    def done(self) -> bool:
        return self._event.is_set()

    @property
    def state(self) -> str:
        if self._abandoned:
            return "abandoned"
        if not self._event.is_set():
            return "pending"
        return "failed" if self._error is not None else "done"

    def result(self, timeout: float | None = None
               ) -> tuple[np.ndarray, np.ndarray, InferenceStats]:
        if self._abandoned:
            raise RequestAbandoned("request was abandoned by its caller")
        if not self._event.wait(timeout):
            raise TimeoutError("request still in flight")
        if self._error is not None:
            raise self._error
        return self._value

    def abandon(self) -> bool:
        """Give up on a still-pending request (typically after a
        ``result(timeout=...)`` TimeoutError).  Terminal for the caller;
        the in-flight work still concludes and is counted.  Returns True
        if this call made the transition (False: already settled or
        already abandoned)."""
        with self._lock:
            if self._abandoned or self._event.is_set():
                return False
            self._abandoned = True
            hook = self._abandon_hook
        if hook is not None:
            hook(self)
        return True

    def add_done_callback(self, fn) -> None:
        """Run ``fn(future)`` once the request settles (immediately if it
        already has).  Callbacks fire on resolve and reject alike, even
        when the future was abandoned — the failover layer's re-drive
        bookkeeping depends on seeing every outcome."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def outcome(self) -> tuple[tuple | None, BaseException | None]:
        """``(value, error)`` of a settled future (both None while
        pending)."""
        return self._value, self._error

    def _settle(self, value, error) -> bool:
        """Record the outcome; returns True when it landed *late* (the
        caller had already abandoned the request)."""
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._error = error
            self.done_at = time.monotonic()
            late = self._abandoned
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for fn in callbacks:
            fn(self)
        return late

    def _resolve(self, value: tuple) -> bool:
        return self._settle(value, None)

    def _reject(self, error: BaseException) -> bool:
        return self._settle(None, error)


class _Request:
    __slots__ = ("x", "future", "enqueued_at")

    def __init__(self, x: np.ndarray, request_id: int | None = None,
                 enqueued_at: float | None = None,
                 deadline_at: float | None = None):
        self.x = x
        self.enqueued_at = enqueued_at
        self.future = ServeFuture(request_id, deadline_at=deadline_at)


def _batch_key(x: np.ndarray) -> tuple:
    """What requests must share to ride one broadcast.  Any float is
    exact in the widest float, so a batch of mixed floats, cast once,
    rounds each row as casting it alone would; other dtypes (an int64
    may not be exact in float64) keep batches of their own."""
    return x.shape[1:], ("f" if x.dtype.kind == "f" else x.dtype)


@dataclass
class ServerStats:
    """Cumulative serving counters (a snapshot; see
    :meth:`TeamNetServer.stats`)."""

    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    abandoned: int = 0
    late_resolutions: int = 0
    batches: int = 0
    batched_rows: int = 0
    max_batch_requests: int = 0
    #: requests shed at admission (queue full or AIMD limit reached);
    #: every one is also counted in ``rejected``
    shed_admission: int = 0
    #: requests shed for deadline — at submit, while queued, or when the
    #: answer landed past the deadline (those also bump ``stale_answers``)
    shed_expired: int = 0
    #: answers that arrived after their request's deadline: the gather
    #: did the work but the client had already timed out
    stale_answers: int = 0

    @property
    def mean_batch_requests(self) -> float:
        if not self.batches:
            return 0.0
        return (self.completed + self.failed) / self.batches


#: collector sentinel: the dispatcher has exited, drain and stop
_DONE = object()


class TeamNetServer:
    """Admission queue + dispatcher/collector pipeline over one master.

    ``submit`` may be called from any number of threads; the dispatcher
    is the only thread that broadcasts (framed sends on a shared
    connection must not interleave) and the collector the only one that
    gathers, so the master's ``_begin``/``_finish`` split is driven
    exactly within its contract.

    * ``max_queue`` — admission bound; beyond it ``submit`` raises
      :class:`ServerOverloaded`.
    * ``max_batch`` — most *requests* coalesced into one broadcast.
    * ``max_inflight`` — pipeline depth: broadcasts outstanding before
      the dispatcher blocks on the collector (backpressure).
    * ``linger_s`` — how long the dispatcher waits for company for a
      lone request before broadcasting it anyway.  0 (default) batches
      only what is already queued — natural batching under load, no
      added latency when idle.
    * ``coalesce`` — ``"exact"`` (bit-identical to sequential ``infer``,
      via per-request segment forwards) or ``"fused"`` (single fused
      forward per batch; see module docstring).
    * ``overload`` — an :class:`~repro.distributed.overload.
      OverloadConfig` turns on overload control: AIMD admission
      (concurrency-limited by observed batch turnaround vs. the latency
      target), LIFO ordering under pressure, and the brownout ladder
      (hedging off → quorum floor 1 → linger off) driven by the
      limiter's pressure signal.  ``None`` (default) is the legacy
      static-``max_queue`` behaviour.  Deadlines (``submit``'s
      ``deadline_s``) work either way.
    * ``clock`` — monotonic time source shared with the master/workers;
      inject the testkit's virtual clock for deterministic deadlines.
    """

    def __init__(self, master: TeamNetMaster, max_queue: int = 256,
                 max_batch: int = 16, max_inflight: int = 4,
                 linger_s: float = 0.0, coalesce: str = "exact",
                 overload: OverloadConfig | None = None, clock=None):
        if max_queue < 1 or max_batch < 1 or max_inflight < 1:
            raise ValueError("max_queue, max_batch and max_inflight "
                             "must be >= 1")
        if coalesce not in ("exact", "fused"):
            raise ValueError(f"coalesce must be 'exact' or 'fused', "
                             f"got {coalesce!r}")
        self.master = master
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.linger_s = linger_s
        self.coalesce = coalesce
        self._clock = clock if clock is not None else time.monotonic
        self.overload = overload
        self._limiter = (AdmissionController(overload, clock=self._clock)
                         if overload is not None else None)
        self._brownout = (BrownoutController(overload, clock=self._clock)
                          if overload is not None else None)
        self._cond = threading.Condition()
        self._queue: deque[_Request] = deque()
        self._inflight: queue.Queue = queue.Queue(maxsize=max_inflight)
        self._closed = False
        self._started = False
        self._stats = ServerStats()
        self._stats_lock = threading.Lock()
        self._dispatcher = threading.Thread(target=self._dispatch_loop,
                                            daemon=True,
                                            name="teamnet-serve-dispatch")
        self._collector = threading.Thread(target=self._collect_loop,
                                           daemon=True,
                                           name="teamnet-serve-collect")

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "TeamNetServer":
        if not self._started:
            self._started = True
            self._dispatcher.start()
            self._collector.start()
        return self

    def close(self, timeout: float = 10.0, drain: bool = True,
              error: BaseException | None = None) -> None:
        """Stop admitting requests.

        With ``drain=True`` (default) everything already submitted still
        completes (or fails through its future).  ``drain=False`` kills
        the queue instead: still-queued requests are rejected immediately
        with ``error`` (default :class:`ServerClosed`) — the failover
        path, where waiting out a dead master's backlog serves nobody;
        batches already on the wire still conclude through the collector
        (to whatever end the dead connections dictate).
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            # Never started: nothing will ever drain the queue — fail the
            # futures instead of leaving their waiters hanging.
            leftovers = (list(self._queue)
                         if (not drain or not self._started) else [])
            if leftovers:
                self._queue.clear()
            self._cond.notify_all()
        if leftovers:
            rejection = error if error is not None else ServerClosed(
                "server closed" if self._started
                else "server closed unstarted")
            late = 0
            for request in leftovers:
                late += bool(request.future._reject(rejection))
            with self._stats_lock:
                self._stats.failed += len(leftovers)
                self._stats.late_resolutions += late
        if self._started:
            self._dispatcher.join(timeout)
            self._collector.join(timeout)

    def __enter__(self) -> "TeamNetServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ----------------------------------------------------------- admission
    def submit(self, x: np.ndarray, request_id: int | None = None,
               deadline_s: float | None = None) -> ServeFuture:
        """Admit one request (an ``(N, D)`` input batch) for inference.

        ``request_id`` is an optional caller-stable id carried on the
        future; the failover layer uses it to dedup re-driven requests.
        ``deadline_s`` is the request's relative deadline budget: an
        already-expired budget is shed right here (no dispatch), a live
        one propagates through batching and the broadcast meta down to
        the workers, which shed it too once it runs out.
        """
        x = np.asarray(x)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D input batch, got shape "
                             f"{x.shape}")
        if x.dtype.kind not in "biuf":
            raise TypeError(f"cannot serve {x.dtype} input: expected "
                            "bool, integer or float")
        now = self._clock()
        deadline_at = (None if deadline_s is None
                       else now + float(deadline_s))
        if deadline_at is not None and deadline_at <= now:
            with self._stats_lock:
                self._stats.rejected += 1
                self._stats.shed_expired += 1
            raise DeadlineExpired(
                f"deadline budget {deadline_s}s expired before admission")
        request = _Request(x, request_id, enqueued_at=now,
                           deadline_at=deadline_at)
        request.future._abandon_hook = self._note_abandoned
        with self._cond:
            if self._closed:
                raise ServerClosed("server is closed")
            depth = len(self._queue)
            oldest_age = (now - self._queue[0].enqueued_at
                          if depth and self._queue[0].enqueued_at is not None
                          else None)
            if depth >= self.max_queue:
                with self._stats_lock:
                    self._stats.rejected += 1
                    self._stats.shed_admission += 1
                raise ServerOverloaded(
                    f"admission queue is full ({self.max_queue})",
                    queue_depth=depth, limit=self.max_queue,
                    oldest_age_s=oldest_age)
            if self._limiter is not None:
                if not self._limiter.try_acquire():
                    with self._stats_lock:
                        self._stats.rejected += 1
                        self._stats.shed_admission += 1
                    raise ServerOverloaded(
                        f"admission limit reached "
                        f"({self._limiter.limit} outstanding)",
                        queue_depth=depth, limit=self._limiter.limit,
                        oldest_age_s=oldest_age)
                # One release per admission, exactly once: _settle fires
                # callbacks exactly once, on resolve and reject alike.
                request.future.add_done_callback(
                    lambda _f: self._limiter.release())
            self._queue.append(request)
            self._cond.notify_all()
        with self._stats_lock:
            self._stats.submitted += 1
        return request.future

    def infer(self, x: np.ndarray, timeout: float | None = None
              ) -> tuple[np.ndarray, np.ndarray, InferenceStats]:
        """Synchronous convenience: ``submit(x).result(timeout)``."""
        return self.submit(x).result(timeout)

    def _note_abandoned(self, future: ServeFuture) -> None:
        with self._stats_lock:
            self._stats.abandoned += 1

    def stats(self) -> ServerStats:
        """A point-in-time copy of the cumulative serving counters."""
        with self._stats_lock:
            return ServerStats(**vars(self._stats))

    def overload_snapshot(self) -> dict:
        """Limiter, brownout and retry-budget state for dashboards
        (``{"enabled": False}`` when overload control is off)."""
        if self._limiter is None:
            return {"enabled": False}
        snapshot = {
            "enabled": True,
            "limiter": self._limiter.snapshot(),
            "brownout": self._brownout.snapshot(),
        }
        budget = getattr(self.master, "retry_budget", None)
        if budget is not None:
            snapshot["retry_budget"] = budget.snapshot()
        return snapshot

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # ---------------------------------------------------------- dispatcher
    def _next_batch(self) -> list[_Request] | None:
        """Pop one coalescible run of requests; None when closed+drained.

        Requests whose deadline already passed while queued are shed
        here (rejected with :class:`~repro.distributed.overload.
        DeadlineExpired`) — dispatching them would waste a broadcast on
        work nobody is waiting for.  Under limiter pressure the pop
        flips to LIFO: fresh requests with live deadlines win over
        doomed stale ones (every request served FIFO from a saturated
        queue is served dead)."""
        while True:
            expired: list[_Request] = []
            batch: list[_Request] | None = None
            with self._cond:
                while not self._queue:
                    if self._closed:
                        break
                    self._cond.wait()
                linger = (self.linger_s if self._brownout is None
                          else self._brownout.linger_s(self.linger_s))
                if self._queue and linger > 0 \
                        and len(self._queue) < self.max_batch \
                        and not self._closed:
                    self._cond.wait(linger)
                now = self._clock()
                keep: deque[_Request] = deque()
                for request in self._queue:
                    deadline_at = request.future.deadline_at
                    if deadline_at is not None and now >= deadline_at:
                        expired.append(request)
                    else:
                        keep.append(request)
                self._queue = keep
                if self._queue:
                    lifo = (self._limiter is not None
                            and self._limiter.pressure
                            >= self.overload.lifo_pressure)
                    pop = (self._queue.pop if lifo
                           else self._queue.popleft)
                    batch = [pop()]
                    key = _batch_key(batch[0].x)
                    peek = -1 if lifo else 0
                    while (self._queue and len(batch) < self.max_batch
                           and _batch_key(self._queue[peek].x) == key):
                        batch.append(pop())
                elif self._closed and not expired:
                    return None
            if expired:
                late = 0
                for request in expired:
                    late += bool(request.future._reject(DeadlineExpired(
                        "deadline expired while queued")))
                with self._stats_lock:
                    self._stats.shed_expired += len(expired)
                    self._stats.failed += len(expired)
                    self._stats.late_resolutions += late
            if batch is not None:
                return batch
            with self._cond:
                if self._closed and not self._queue:
                    return None

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                self._inflight.put(_DONE)
                return
            # Fused batches have no per-segment wire format: one forward.
            segments = ([len(request.x) for request in batch]
                        if self.coalesce == "exact" else None)
            # Remaining deadline budgets at send time, one per request
            # (None = no deadline).  A single-request batch rides the
            # whole-request budget; a coalesced one carries per-segment
            # budgets so workers can shed mid-batch.
            now = self._clock()
            budgets = [None if r.future.deadline_at is None
                       else r.future.deadline_at - now for r in batch]
            whole_budget: float | None = None
            segment_budgets = None
            if len(batch) == 1:
                whole_budget = budgets[0]
            elif self.coalesce == "exact":
                segment_budgets = budgets
            elif all(b is not None for b in budgets):
                # Fused batches have no per-segment wire format; shed the
                # whole forward only when *every* request is dead.
                whole_budget = max(budgets)
            # The rung in force now decides this batch's hedging and
            # quorum floor, however the ladder moves before it is done.
            hedge, degradation = (
                (True, None) if self._brownout is None
                else self._brownout.allowance(self.master.degradation))
            try:
                batch_x = (batch[0].x if len(batch) == 1
                           else np.concatenate([r.x for r in batch], axis=0))
                pending = self.master._begin(
                    batch_x, segments=segments,
                    deadline_budget_s=whole_budget,
                    segment_budgets_s=segment_budgets,
                    hedge=hedge, degradation=degradation)
                local = expert_forward_segments(self.master.expert,
                                                pending.x, segments,
                                                engine=self.master.engine)
            except Exception as exc:  # noqa: BLE001 - delivered via futures
                late = 0
                for request in batch:
                    late += bool(request.future._reject(exc))
                with self._stats_lock:
                    self._stats.failed += len(batch)
                    self._stats.late_resolutions += late
                continue
            with self._stats_lock:
                self._stats.batches += 1
                self._stats.batched_rows += len(batch_x)
                self._stats.max_batch_requests = max(
                    self._stats.max_batch_requests, len(batch))
            # Bounded: blocks when max_inflight broadcasts are already on
            # the wire — backpressure flows from gather to admission.
            self._inflight.put((batch, pending, local))

    # ----------------------------------------------------------- collector
    def _observe_turnaround(self, batch: list[_Request], now: float) -> None:
        """Feed the limiter one enqueue-to-answer sample (the *oldest*
        request's, so queue wait is charged — gather time alone stays
        flat while the queue grows, which is exactly the overload the
        sample must see) and drive the brownout ladder off the updated
        pressure signal."""
        if self._limiter is None:
            return
        enqueued = [r.enqueued_at for r in batch
                    if r.enqueued_at is not None]
        if enqueued:
            self._limiter.on_sample(now - min(enqueued))
        self._brownout.observe(self._limiter.pressure)

    def _collect_loop(self) -> None:
        while True:
            item = self._inflight.get()
            if item is _DONE:
                return
            batch, pending, local = item
            try:
                preds, winner, stats = self.master._finish(pending, local)
            except Exception as exc:  # noqa: BLE001 - delivered via futures
                late = 0
                for request in batch:
                    late += bool(request.future._reject(exc))
                with self._stats_lock:
                    self._stats.failed += len(batch)
                    self._stats.late_resolutions += late
                self._observe_turnaround(batch, self._clock())
                continue
            now = self._clock()
            offset = 0
            late = 0
            completed = stale = 0
            for request in batch:
                rows = len(request.x)
                deadline_at = request.future.deadline_at
                if deadline_at is not None and now > deadline_at:
                    # The answer exists but landed past the deadline: the
                    # client is gone.  Resolve expired exactly once; the
                    # computed answer is booked stale, never delivered.
                    late += bool(request.future._reject(DeadlineExpired(
                        "answer arrived after the deadline")))
                    stale += 1
                else:
                    late += bool(request.future._resolve(
                        (preds[offset:offset + rows],
                         winner[offset:offset + rows],
                         stats)))
                    completed += 1
                offset += rows
            with self._stats_lock:
                self._stats.completed += completed
                self._stats.failed += stale
                self._stats.shed_expired += stale
                self._stats.stale_answers += stale
                self._stats.late_resolutions += late
            self._observe_turnaround(batch, now)
