import numpy as np

from repro.core import ExpertOutput

from bench.spec import NEAR_TIE
from bench.team import References, near_tie


def _references(near_tie):
    return References(preds=np.array([[3, 5]]), winner=np.array([[1, 2]]),
                      near_tie=np.array([near_tie]))


def _ok(refs, preds, winner, tolerant):
    return bool(refs.correct([0], np.array([preds]), np.array([winner]),
                             tolerant)[0])


def test_sync_answers_must_match_exactly():
    refs = _references([True, True])   # even on a dead tie
    assert _ok(refs, [3, 5], [1, 2], tolerant=False)
    assert not _ok(refs, [3, 5], [1, 0], tolerant=False)
    assert not _ok(refs, [3, 4], [1, 2], tolerant=False)
    assert not _ok(refs, [-1, -1], [-1, -1], tolerant=False)


def test_fused_serving_may_differ_only_on_near_ties():
    clear = _references([False, False])
    assert _ok(clear, [3, 5], [1, 2], tolerant=True)
    assert not _ok(clear, [3, 5], [1, 0], tolerant=True)
    second_row_ties = _references([False, True])
    assert _ok(second_row_ties, [3, 7], [1, 0], tolerant=True)
    assert not _ok(second_row_ties, [4, 5], [1, 2], tolerant=True)


def test_requests_are_checked_against_their_own_input():
    refs = References(preds=np.array([[1], [2]]), winner=np.array([[0], [3]]),
                      near_tie=np.zeros((2, 1), dtype=bool))
    ok = refs.correct(np.array([1, 0, 1]), np.array([[2], [1], [1]]),
                      np.array([[3], [0], [3]]), tolerant=False)
    assert ok.tolist() == [True, True, False]


def _output(probs, entropy):
    return ExpertOutput(probs=np.array(probs), entropy=np.array(entropy))


def test_near_tie_is_an_entropy_gap_or_a_top2_gap_inside_the_tolerance():
    # three rows, two experts; expert 0 wins every row
    outputs = [
        _output([[0.7, 0.3], [0.7, 0.3], [0.5, 0.5 - NEAR_TIE / 2]],
                [0.1, 0.1, 0.1]),
        _output([[0.6, 0.4]] * 3, [0.5, 0.1 + NEAR_TIE / 2, 0.5]),
    ]
    winner = np.array([0, 0, 0])
    # row 0 is clear, row 1 ties on entropy, row 2 on the winner's top 2
    assert near_tie(outputs, winner).tolist() == [False, True, True]
    outputs[1].entropy[1] = 0.1 + 2 * NEAR_TIE
    outputs[0].probs[2] = [0.5 + NEAR_TIE, 0.5 - NEAR_TIE]
    assert near_tie(outputs, winner).tolist() == [False, False, False]
