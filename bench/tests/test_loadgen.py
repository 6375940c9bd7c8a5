import time

import numpy as np

from bench.loadgen import drive_closed, drive_open, poisson_schedule


def test_arrival_schedule_is_reproducible_from_the_seed():
    a = poisson_schedule(1000.0, 5.0, seed=3)
    b = poisson_schedule(1000.0, 5.0, seed=3)
    c = poisson_schedule(1000.0, 5.0, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[:100], c[:100])
    assert (np.diff(a) > 0).all() and a[0] > 0 and a[-1] < 5.0
    assert abs(len(a) / 5.0 - 1000.0) < 60      # ~4 sigma of Poisson(5000)
    assert abs(np.diff(a).mean() - 1e-3) < 1e-4


class _Stats:
    messages_sent = messages_received = 3
    bytes_sent = bytes_received = 100
    stale_replies = failures = 0
    hedged = degraded = False


class _Future:
    def __init__(self, answer):
        self._answer = answer
        self.done_at = time.monotonic()

    def done(self):
        return True

    def result(self, timeout=None):
        return self._answer


def _server(refuse_at=()):
    calls = []

    def submit(x):
        calls.append(x)
        if len(calls) - 1 in refuse_at:
            raise RuntimeError("queue full")
        return _Future((x, np.array([0]), _Stats()))
    return submit


INPUTS = [np.array([10]), np.array([11]), np.array([12])]


def test_open_loop_times_from_due_and_keeps_rows_aligned():
    origin = time.monotonic()
    schedule = np.array([0.0, 0.001, 0.002, 0.003, 0.05])
    log = drive_open(_server(refuse_at={2}), INPUTS, origin, origin,
                     schedule)
    assert list(log.index) == [0, 1, 2, 0, 1]
    assert np.allclose(np.array(log.due) - origin, schedule)
    assert all(s >= d for s, d in zip(log.sent, log.due))
    # the refused request keeps its row; its neighbours keep their answers
    assert log.refused == {2} and set(log.errors) == {2}
    assert log.column("preds").tolist() == [[10], [11], [-1], [10], [11]]
    assert log.column("winner").tolist() == [[0], [0], [-1], [0], [0]]
    assert len(log.done) == len(log.submitted) == 5
    assert log.counts["gathers"] == 4 and log.counts["frames"] == 24


def test_closed_loop_keeps_the_requested_number_outstanding():
    flying = []

    class Pending(_Future):
        def result(self, timeout=None):
            flying.remove(self)
            return super().result()

    high = []

    def submit(x):
        future = Pending((x, np.array([0]), _Stats()))
        flying.append(future)
        high.append(len(flying))
        return future

    start = time.monotonic()
    log = drive_closed(submit, INPUTS, 8, start, start + 0.05)
    assert max(high) == 8 and not flying
    assert len(log.done) == len(log.due) > 8
    assert log.due == log.sent            # closed loop: due when sent


def test_an_answer_of_the_wrong_shape_is_an_error_not_a_shifted_column():
    def submit(x):
        return _Future((np.array([1, 2]), np.array([0, 0]), _Stats()))

    origin = time.monotonic()
    log = drive_open(submit, INPUTS, origin, origin, np.array([0.0, 0.001]))
    assert set(log.errors) == {0, 1}
    assert log.column("preds").tolist() == [[-1], [-1]]
