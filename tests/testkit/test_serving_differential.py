"""Differential check of the serving core against sequential ``infer``.

:func:`run_serving_differential_case` queues a whole request set before
the server starts, so the first broadcast genuinely coalesces a
micro-batch, then asserts every served answer matches a sequential
``master.infer`` of the same request on a fresh tape cluster — byte for
byte for both the ``tape`` and ``compiled`` engines.
"""

import numpy as np
import pytest

from repro.testkit import forbid_sockets, run_serving_differential_case
from repro.testkit import strategies
from repro.testkit.differential import DifferentialMismatch


def case_requests(seed):
    rng = strategies.rng_from(seed, 31)
    experts, x = strategies.expert_team(rng)
    requests = [rng.standard_normal(
        (int(rng.integers(1, 6)), x.shape[1])).astype(x.dtype)
        for _ in range(int(rng.integers(5, 10)))]
    return experts, requests


@pytest.mark.parametrize("engine", ["tape", "compiled"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_served_answers_match_reference_across_seeds(seed, engine):
    experts, requests = case_requests(seed)
    with forbid_sockets():
        batches = run_serving_differential_case(experts, requests,
                                                max_batch=8, engine=engine)
    # The guarantee must have been earned on the coalesced wire path,
    # not on a degenerate one-broadcast-per-request run.
    assert batches < len(requests)


def test_single_row_requests_coalesce_and_match():
    rng = strategies.rng_from(9, 31)
    experts, x = strategies.expert_team(rng)
    requests = [rng.standard_normal((1, x.shape[1])).astype(x.dtype)
                for _ in range(6)]
    with forbid_sockets():
        batches = run_serving_differential_case(experts, requests,
                                                max_batch=6)
    assert batches == 1


def test_mismatch_is_reported_not_swallowed():
    """Guard the checker itself against vacuous passes: its byte
    comparator must flag value and dtype divergence."""
    from repro.testkit.differential import _assert_identical
    with pytest.raises(DifferentialMismatch):
        _assert_identical("forged", np.zeros(3), np.ones(3))
    with pytest.raises(DifferentialMismatch):
        _assert_identical("forged", np.zeros(3, np.float32),
                          np.zeros(3, np.float64))

