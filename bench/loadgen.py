"""Load generators: one thread, three loop shapes, one :class:`Log`.

All stamps are ``time.monotonic()`` — the clock ``ServeFuture.done_at``
uses, so a serving sojourn needs no wake-up of the generator to be
timed.

The open loop times each request from when it was *due*, not from when
it was sent: a stalled generator delays every later request, and timing
from the actual send would hide exactly that wait.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, deque

import numpy as np

#: how long the generator waits for stragglers once it stops sending
DRAIN_S = 10.0


class Log:
    """What the generator remembers of a run, as columns of numbers.

    ``array`` columns, not one object per request, and futures and
    ``InferenceStats`` are dropped as soon as they are read.  Two
    reasons: the interpreter's full collections walk every container
    object alive, and with 10^5 retained futures and records they took
    30-70 ms each — pauses of the harness that would be measured as the
    server's tail; and at 10^4 requests a second, answers kept as arrays
    were half of ``peak_rss_mb``.

    Row ``i`` is the i-th request begun.  ``begin`` and ``admitted``
    fill the first four columns in submit order; ``settle`` fills the
    rest in the same order (a server resolves FIFO).  An answer is
    ``rows`` predictions and ``rows`` winners (16-bit: classes and
    expert indexes are small), -1 where the request failed.  Wire
    counters are folded for requests due at or after ``since`` only.
    """

    def __init__(self, since: float, rows: int):
        self.since = since
        self.rows = rows
        self.index = array("q")
        self.due = array("d")
        self.sent = array("d")
        self.submitted = array("d")
        self.done = array("d")
        self.preds = array("h")
        self.winner = array("h")
        self.errors: dict = {}        #: row -> the exception
        self.refused: set = set()     #: rows turned away at ``submit``
        self.counts: Counter = Counter()
        self._last_stats = None
        self._no_answer = array("h", [-1] * rows)

    def begin(self, index: int, due: float, sent: float) -> None:
        self.index.append(index)
        self.due.append(due)
        self.sent.append(sent)

    def admitted(self, at: float) -> None:
        self.submitted.append(at)

    def settle(self, done: float, result=None, error=None) -> None:
        row = len(self.done)
        self.done.append(done)
        if error is None:
            preds, winner, stats = result
            if np.shape(preds) != (self.rows,) \
                    or np.shape(winner) != (self.rows,):
                error = ValueError(f"answer of shape {np.shape(preds)}, "
                                   f"{np.shape(winner)} to a request of "
                                   f"{self.rows} rows")
        if error is not None:
            self.errors[row] = error
            self.preds.extend(self._no_answer)
            self.winner.extend(self._no_answer)
            return
        self.preds.frombytes(np.asarray(preds, dtype=np.int16).tobytes())
        self.winner.frombytes(np.asarray(winner, dtype=np.int16).tobytes())
        if self.due[row] >= self.since:
            counts = self.counts
            # One InferenceStats per gather: every request of a served
            # batch shares it, and a batch's requests settle in a row.
            if stats is not self._last_stats:
                counts["gathers"] += 1
                counts["frames"] += (stats.messages_sent
                                     + stats.messages_received)
                counts["wire_bytes"] += stats.bytes_sent + stats.bytes_received
                counts["stale"] += stats.stale_replies
            counts["failures"] += stats.failures > 0
            counts["hedged"] += bool(stats.hedged)
            counts["degraded"] += bool(stats.degraded)
        self._last_stats = stats

    def column(self, name: str) -> np.ndarray:
        """A column as a numpy array (a view: read it once the run is
        over); an answer column has one row of ``rows`` values per
        request."""
        values = np.asarray(getattr(self, name))
        if name in ("preds", "winner"):
            return values.reshape(-1, self.rows)
        return values


def poisson_schedule(rate: float, duration: float, seed: int) -> np.ndarray:
    """Seeded Poisson arrival offsets in ``[0, duration)``."""
    rng = np.random.default_rng(seed)
    count = int(rate * duration * 1.2) + 64
    offsets = np.cumsum(rng.exponential(1.0 / rate, count))
    while offsets[-1] < duration:   # a thin draw: extend, same stream
        more = np.cumsum(rng.exponential(1.0 / rate, count)) + offsets[-1]
        offsets = np.concatenate([offsets, more])
    return offsets[offsets < duration]


def drive_sync(infer, inputs, since: float, until: float) -> Log:
    """Closed loop, one caller: back-to-back ``infer`` until ``until``."""
    log = Log(since, len(inputs[0]))
    count = len(inputs)
    i = 0
    while True:
        start = time.monotonic()
        if start >= until:
            return log
        log.begin(i % count, start, start)
        log.admitted(start)
        try:
            result = infer(inputs[i % count])
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            log.settle(time.monotonic(), error=exc)
        else:
            log.settle(time.monotonic(), result)
        i += 1


class _Flights:
    """Requests submitted to a server and not yet read back, oldest
    first.  The dispatcher pops FIFO and the collector resolves in
    order, so the oldest future is always the next to finish."""

    def __init__(self, submit, inputs, log: Log):
        self._submit = submit
        self._inputs = inputs
        self._flying: deque = deque()
        self.log = log

    def __len__(self) -> int:
        return len(self._flying)

    def submit(self, i: int, due: float | None = None) -> bool:
        index = i % len(self._inputs)
        sent = time.monotonic()
        self.log.begin(index, sent if due is None else due, sent)
        try:
            future = self._submit(self._inputs[index])
        except Exception as exc:  # noqa: BLE001 - refused: a failure
            future = exc
            self.log.refused.add(len(self.log.submitted))
        self.log.admitted(time.monotonic())
        self._flying.append(future)
        return not isinstance(future, Exception)

    def settle_oldest(self, deadline: float) -> None:
        future = self._flying.popleft()
        if isinstance(future, Exception):
            self.log.settle(time.monotonic(), error=future)
            return
        try:
            result = future.result(
                timeout=max(0.05, deadline - time.monotonic()))
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            self.log.settle(time.monotonic(), error=exc)
        else:
            self.log.settle(future.done_at, result)

    def harvest(self) -> None:
        """Read back whatever has already finished, without waiting."""
        flying = self._flying
        while flying and (isinstance(flying[0], Exception)
                          or flying[0].done()):
            self.settle_oldest(0.0)

    def drain(self) -> Log:
        deadline = time.monotonic() + DRAIN_S
        while self._flying:
            self.settle_oldest(deadline)
        return self.log


def drive_open(submit, inputs, origin: float, since: float,
               schedule: np.ndarray) -> Log:
    """Open loop: submit at ``origin + schedule[k]`` whatever the server
    is doing, then wait for every answer."""
    flights = _Flights(submit, inputs, Log(since, len(inputs[0])))
    for i, offset in enumerate(schedule):
        due = origin + float(offset)
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        flights.submit(i, due)
        flights.harvest()
    return flights.drain()


def drive_closed(submit, inputs, outstanding: int, since: float,
                 until: float) -> Log:
    """Closed loop, ``outstanding`` callers in one thread: wait on the
    oldest future, submit its replacement."""
    flights = _Flights(submit, inputs, Log(since, len(inputs[0])))
    i = 0
    while time.monotonic() < until:
        if len(flights) == outstanding:
            flights.settle_oldest(time.monotonic() + DRAIN_S)
        if not flights.submit(i):
            break   # refused with room in the queue: the server is gone
        i += 1
    return flights.drain()
