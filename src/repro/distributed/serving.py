"""Concurrent micro-batched serving on top of :class:`TeamNetMaster`.

The master's ``infer`` is one synchronous broadcast/gather; a deployed
edge team serves *many users at once* (the CANS regime).  This module
adds that layer without touching the protocol:

* **Bounded admission** — :meth:`TeamNetServer.submit` enqueues a request
  and returns a :class:`ServeFuture`; a full queue rejects with
  :class:`ServerOverloaded` (open-loop load must shed, not silently grow
  an unbounded backlog).  One plain lock covers the queue and the
  counters, and an arrival wakes the dispatcher only if it sleeps
  (waiting for work or lingering: any arrival ends a linger).
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
import traceback
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
    without racing the wakeup.  A future is a ``_done`` flag set under
    one lock all futures share (a batch settles in one pass under it); a
    ``threading.Event`` is made only for a caller that blocks on it.

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

    __slots__ = ("done_at", "request_id", "deadline_at", "_done", "_value",
                 "_error", "_abandoned", "_waiter", "_callbacks",
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
        self._done = False
        self._value: tuple | None = None
        self._error: BaseException | None = None
        self._abandoned = False
        self._waiter: threading.Event | None = None  #: made by a blocker
        self._callbacks: list | None = None
        self._abandon_hook = None

    def done(self) -> bool:
        return self._done

    @property
    def state(self) -> str:
        if self._abandoned:
            return "abandoned"
        if not self._done:
            return "pending"
        return "failed" if self._error is not None else "done"

    def result(self, timeout: float | None = None
               ) -> tuple[np.ndarray, np.ndarray, InferenceStats]:
        if self._abandoned:
            raise RequestAbandoned("request was abandoned by its caller")
        if not self._done:
            with _SETTLE:
                if not self._done and self._waiter is None:
                    self._waiter = threading.Event()
                waiter = None if self._done else self._waiter
            if waiter is not None and not waiter.wait(timeout):
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
        with _SETTLE:
            if self._abandoned or self._done:
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
        with _SETTLE:
            if not self._done:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(fn)
                return
        fn(self)

    def outcome(self) -> tuple[tuple | None, BaseException | None]:
        """``(value, error)`` of a settled future (both None while
        pending)."""
        return self._value, self._error

    def _resolve(self, value: tuple) -> bool:
        """Record an answer; True if the caller had abandoned it."""
        return bool(_settle(((self, value, None),))[0])

    def _reject(self, error: BaseException) -> bool:
        return bool(_settle(((self, None, error),))[0])


#: every future settles, blocks, abandons and takes callbacks under this
_SETTLE = threading.Lock()


def _settle(outcomes) -> tuple[int, int]:
    """Settle ``(future, value, error)`` triples in one pass under one
    acquisition of the shared lock, then wake only the futures someone
    blocks on and run only the callbacks that exist.  A future already
    settled keeps its first outcome.  A raising callback is printed and
    counted.  Returns ``(landed late, callbacks that raised)``."""
    late = broken = 0
    woken = []
    with _SETTLE:
        now = time.monotonic()
        for future, value, error in outcomes:
            if future._done:
                continue
            future._value = value
            future._error = error
            future.done_at = now
            future._done = True
            late += future._abandoned
            if future._waiter is not None or future._callbacks is not None:
                woken.append(future)
    # Once _done is set no waiter or callback is added, so both are final.
    for future in woken:
        if future._waiter is not None:
            future._waiter.set()
        for fn in future._callbacks or ():
            try:
                fn(future)
            except Exception:  # noqa: BLE001 - must not stop the settler
                traceback.print_exc()
                broken += 1
    return late, broken


class _Request:
    __slots__ = ("x", "key", "future", "enqueued_at")

    def __init__(self, x: np.ndarray, future: ServeFuture,
                 enqueued_at: float):
        self.x = x
        #: what requests must share to ride one broadcast: any float is
        #: exact in the widest float, so mixed floats cast once as a batch
        #: round as alone; other dtypes (an int64 may not be exact in
        #: float64) batch on their own
        self.key = x.shape[1], ("f" if x.dtype.kind == "f" else x.dtype)
        self.future = future
        self.enqueued_at = enqueued_at


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
    #: done-callbacks that raised as a future settled (serving went on)
    callback_errors: int = 0

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
        # The dispatcher sleeps on _wakeup; an arrival notifies only
        # while _idle says it sleeps.
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._idle = False
        self._queue: deque[_Request] = deque()
        self._deadlined = 0     #: queued requests that carry a deadline
        self._inflight: queue.Queue = queue.Queue(maxsize=max_inflight)
        self._closed = False
        self._started = False
        self._stats = ServerStats()
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
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # Never started: nothing will ever drain the queue — fail the
            # futures instead of leaving their waiters hanging.
            leftovers = (list(self._queue)
                         if (not drain or not self._started) else [])
            if leftovers:
                self._queue.clear()
                self._deadlined = 0
            self._wakeup.notify_all()
        if leftovers:
            rejection = error if error is not None else ServerClosed(
                "server closed" if self._started
                else "server closed unstarted")
            self._conclude(((request.future, None, rejection)
                            for request in leftovers), failed=len(leftovers))
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
            with self._lock:
                self._stats.rejected += 1
                self._stats.shed_expired += 1
            raise DeadlineExpired(
                f"deadline budget {deadline_s}s expired before admission")
        future = ServeFuture(request_id, deadline_at)
        future._abandon_hook = self._note_abandoned
        request = _Request(x, future, now)
        with self._lock:
            if self._closed:
                raise ServerClosed("server is closed")
            depth = len(self._queue)
            if depth >= self.max_queue:
                raise self._overloaded(
                    f"admission queue is full ({self.max_queue})",
                    self.max_queue, now)
            if self._limiter is not None:
                if not self._limiter.try_acquire():
                    raise self._overloaded(
                        f"admission limit reached "
                        f"({self._limiter.limit} outstanding)",
                        self._limiter.limit, now)
                # One release per admission, exactly once: a future runs
                # each callback once, on resolve and reject alike.
                future.add_done_callback(lambda _f: self._limiter.release())
            self._queue.append(request)
            self._deadlined += deadline_at is not None
            self._stats.submitted += 1
            if self._idle:
                self._idle = False
                self._wakeup.notify()
        return future

    def _overloaded(self, message: str, limit: int, now: float
                    ) -> ServerOverloaded:
        """Count a shed at the door and build its error (lock held)."""
        self._stats.rejected += 1
        self._stats.shed_admission += 1
        depth = len(self._queue)
        return ServerOverloaded(
            message, queue_depth=depth, limit=limit,
            oldest_age_s=now - self._queue[0].enqueued_at if depth else None)

    def infer(self, x: np.ndarray, timeout: float | None = None
              ) -> tuple[np.ndarray, np.ndarray, InferenceStats]:
        """Synchronous convenience: ``submit(x).result(timeout)``."""
        return self.submit(x).result(timeout)

    def _note_abandoned(self, future: ServeFuture) -> None:
        with self._lock:
            self._stats.abandoned += 1

    def stats(self) -> ServerStats:
        """A point-in-time copy of the cumulative serving counters."""
        with self._lock:
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
        with self._lock:
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
            with self._lock:
                while not self._queue and not self._closed:
                    self._sleep(None)
                linger = (self.linger_s if self._brownout is None
                          else self._brownout.linger_s(self.linger_s))
                if self._queue and linger > 0 \
                        and len(self._queue) < self.max_batch \
                        and not self._closed:
                    self._sleep(linger)
                if self._deadlined:
                    now = self._clock()
                    keep: deque[_Request] = deque()
                    for request in self._queue:
                        deadline_at = request.future.deadline_at
                        if deadline_at is not None and now >= deadline_at:
                            expired.append(request)
                        else:
                            keep.append(request)
                    self._queue = keep
                    self._deadlined -= len(expired)
                if self._queue:
                    lifo = (self._limiter is not None
                            and self._limiter.pressure
                            >= self.overload.lifo_pressure)
                    pop = (self._queue.pop if lifo
                           else self._queue.popleft)
                    batch = [pop()]
                    key = batch[0].key
                    peek = -1 if lifo else 0
                    while (self._queue and len(batch) < self.max_batch
                           and self._queue[peek].key == key):
                        batch.append(pop())
                    if self._deadlined:
                        self._deadlined -= sum(
                            r.future.deadline_at is not None for r in batch)
                elif self._closed and not expired:
                    return None
            if expired:
                self._conclude(((request.future, None, DeadlineExpired(
                    "deadline expired while queued")) for request in expired),
                    shed_expired=len(expired), failed=len(expired))
            if batch is not None:
                return batch
            with self._lock:
                if self._closed and not self._queue:
                    return None

    def _sleep(self, timeout: float | None) -> None:
        """Wait (lock held) until an arrival, ``close`` or ``timeout``."""
        self._idle = True
        self._wakeup.wait(timeout)
        self._idle = False

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
                self._fail(batch, exc)
                continue
            with self._lock:
                self._stats.batches += 1
                self._stats.batched_rows += len(batch_x)
                self._stats.max_batch_requests = max(
                    self._stats.max_batch_requests, len(batch))
            # Bounded: blocks when max_inflight broadcasts are already on
            # the wire — backpressure flows from gather to admission.
            self._inflight.put((batch, pending, local))

    def _fail(self, batch: list[_Request], error: BaseException) -> None:
        """Reject every request of a batch that could not be served."""
        self._conclude(((request.future, None, error) for request in batch),
                       failed=len(batch))

    def _conclude(self, outcomes, **counts: int) -> None:
        """Settle ``outcomes``; book ``counts`` and what settling found."""
        counts["late_resolutions"], counts["callback_errors"] = _settle(
            outcomes)
        with self._lock:
            for name, count in counts.items():
                setattr(self._stats, name, getattr(self._stats, name) + count)

    # ----------------------------------------------------------- collector
    def _observe_turnaround(self, batch: list[_Request], now: float) -> None:
        """Feed the limiter one enqueue-to-answer sample (the *oldest*
        request's, so queue wait is charged — gather time alone stays
        flat while the queue grows, which is exactly the overload the
        sample must see) and drive the brownout ladder off the updated
        pressure signal."""
        if self._limiter is None:
            return
        self._limiter.on_sample(now - min(r.enqueued_at for r in batch))
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
                self._fail(batch, exc)
                self._observe_turnaround(batch, self._clock())
                continue
            now = self._clock()
            offset = 0
            outcomes = []
            stale = 0
            for request in batch:
                rows = len(request.x)
                deadline_at = request.future.deadline_at
                if deadline_at is not None and now > deadline_at:
                    # The answer exists but landed past the deadline: the
                    # client is gone.  Resolve expired exactly once; the
                    # computed answer is booked stale, never delivered.
                    outcomes.append((request.future, None, DeadlineExpired(
                        "answer arrived after the deadline")))
                    stale += 1
                else:
                    outcomes.append((request.future,
                                     (preds[offset:offset + rows],
                                      winner[offset:offset + rows], stats),
                                     None))
                offset += rows
            self._conclude(outcomes, completed=len(batch) - stale,
                           failed=stale, shed_expired=stale,
                           stale_answers=stale)
            self._observe_turnaround(batch, now)
