import statistics

import pytest

from bench.stats import (TooFewSamples, percentile, quartiles, self_time,
                         spread)


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(range(199), 95)
    assert percentile(range(200), 95) == pytest.approx(189.05)
    with pytest.raises(TooFewSamples):
        percentile(range(999), 99)
    percentile(range(1000), 99)
    with pytest.raises(TooFewSamples):
        percentile(range(19), 50)
    assert percentile(range(21), 50) == 10
    # a low percentile counts the samples below it
    with pytest.raises(TooFewSamples):
        percentile(range(199), 5)
    # a smoke run may ask for less
    assert percentile(range(30), 95, min_beyond=1) == pytest.approx(27.55)


def test_quartiles_are_the_drivers():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, median, q3 = quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert quartiles([1.0, None, 2.0]) is None
    assert spread([]) is None


def test_self_time_is_span_minus_covered_children():
    # root 0..10; children 1..3 and 2..5 overlap (cover 1..5 once),
    # 7..8 is separate, 9..12 is clipped to 9..10, 20..21 lies outside.
    children = [(1, 3), (2, 5), (7, 8), (9, 12), (20, 21)]
    assert self_time((0, 10), children) == pytest.approx(10 - 4 - 1 - 1)
    assert self_time((0, 10), []) == 10
    assert self_time((0, 10), [(-5, 50)]) == 0
