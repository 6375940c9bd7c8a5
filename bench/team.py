"""The team under test, its seeded inputs and the answer oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import TeamInference, argmin_select
from repro.nn import build_model, downsize, mlp_spec, shake_shake_spec

from .spec import NEAR_TIE, POOL, TEAM, WEIGHTS_SEED, Workload


def build_experts(workload: Workload):
    """The workload's experts; weights never depend on ``--seed``."""
    reference = (mlp_spec(4, width=64) if workload.family == "mlp"
                 else shake_shake_spec(8))
    spec = downsize(reference, TEAM)
    return [build_model(spec, np.random.default_rng((WEIGHTS_SEED, i)))
            for i in range(TEAM)]


def make_inputs(workload: Workload, seed: int) -> list[np.ndarray]:
    """``POOL[family]`` distinct request inputs from ``seed``.

    Batched MLP requests are overlapping row runs of one seeded matrix
    (request i = rows i..i+rows), which keeps 256 distinct 401 KB
    requests inside one 2 MB array."""
    rng = np.random.default_rng(seed)
    count = POOL[workload.family]
    if workload.family == "cnn":
        return list(rng.standard_normal((count, workload.rows, 3, 32, 32)))
    rows = workload.rows
    matrix = rng.standard_normal((count + rows - 1, 784))
    return [matrix[i:i + rows] for i in range(count)]


@dataclass
class References:
    """The oracle's answers for the whole input pool, one row of each
    array per input, and where a reference row is so close to a tie
    that fused serving may legitimately flip it."""

    preds: np.ndarray      #: (pool, rows)
    winner: np.ndarray     #: (pool, rows)
    near_tie: np.ndarray   #: (pool, rows) bool

    def correct(self, index, preds, winner, tolerant: bool) -> np.ndarray:
        """Per request: does the answer ``(preds, winner)`` to input
        ``index`` match the reference?  Exact match of predictions and
        winners; with ``tolerant`` (fused serving) a row may differ only
        where the reference itself is within ``NEAR_TIE`` of a tie
        between experts or between classes."""
        differs = ((preds != self.preds[index])
                   | (winner != self.winner[index]))
        if tolerant:
            differs &= ~self.near_tie[index]
        return ~differs.any(axis=1)


def near_tie(outputs, winner) -> np.ndarray:
    """Per row of one request: is the reference within ``NEAR_TIE`` of a
    tie — between the two least uncertain experts (entropy gap) or
    between the winner's two most probable classes?"""
    entropies = np.sort(np.stack([o.entropy for o in outputs], axis=1),
                        axis=1)
    rows = np.arange(len(winner))
    top = np.sort(np.stack([o.probs for o in outputs], axis=1)[rows, winner],
                  axis=1)
    return ((entropies[:, 1] - entropies[:, 0] <= NEAR_TIE)
            | (top[:, -1] - top[:, -2] <= NEAR_TIE))


def references(experts, inputs) -> References:
    """``TeamInference(experts, engine="compiled").predict_with_winner``
    on each input, one request at a time (a request's own batch shape,
    so the synchronous path must match it byte for byte)."""
    team = TeamInference(experts, engine="compiled")
    preds, winners, near_ties = [], [], []
    for x in inputs:
        outputs = team.forward_all(x)
        pred, winner = argmin_select(outputs)   # == predict_with_winner(x)
        preds.append(pred)
        winners.append(winner)
        near_ties.append(near_tie(outputs, winner))
    return References(np.stack(preds), np.stack(winners),
                      np.stack(near_ties))
