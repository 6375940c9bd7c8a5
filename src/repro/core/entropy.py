"""Predictive entropy and the batch diversity statistics of Section IV.

Defines (following the paper's notation):

* ``H(y|x, theta_i)`` — predictive entropy of expert i on input x (Sec. IV-A);
* ``E(x)`` — mean entropy across experts;
* ``D(x)`` — mean absolute deviation of the entropies from ``E(x)``;
* ``Delta`` — the batch-average of ``D(x)/E(x)`` ("how diverse the
  uncertainty of different expert models is", Sec. IV-B).
"""

from __future__ import annotations

import numpy as np

from ..nn import Module, Tensor, no_grad
from ..nn import functional as F

__all__ = [
    "predictive_entropy", "softmax_entropy", "entropy_from_probs",
    "entropy_matrix", "mean_entropy", "abs_deviation",
    "relative_mean_abs_deviation",
]

_EPS = 1e-12


def predictive_entropy(logits) -> np.ndarray:
    """Entropy of the softmax distribution for each row of ``logits``.

    Accepts a Tensor or ndarray of shape (N, C); returns an ndarray (N,).
    Computed via log-softmax for numerical stability.

    A row containing NaN/inf logits has no defined distribution; its
    entropy is ``+inf`` — maximally uncertain, so the arg-min gate can
    never select a corrupted expert's output (``np.argmin`` would
    otherwise treat a NaN entropy as the minimum).
    """
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    data = np.asarray(data, dtype=np.result_type(data.dtype, np.float64)
                      if data.dtype.kind != "f" else data.dtype)
    finite = np.isfinite(data).all(axis=-1)
    safe = np.where(finite[..., None], data, 0.0)
    shifted = safe - safe.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_p = shifted - log_z
    p = np.exp(log_p)
    entropy = -(p * log_p).sum(axis=-1)
    return np.where(finite, entropy, np.inf)


def softmax_entropy(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities and predictive entropy of each row of
    ``logits`` (N, C), from one shifted exponential.

    ``probs`` is :func:`repro.nn.functional.softmax`, expression for
    expression; ``entropy`` is ``-sum(p * log p)`` with
    ``log p = shifted - log z``.  Both keep the dtype of ``logits``.  As
    in :func:`predictive_entropy`, a row with a NaN/inf logit has entropy
    ``+inf`` so the arg-min gate can never select it.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=-1, keepdims=True)
    probs = exp / z
    entropy = -(probs * (shifted - np.log(z))).sum(axis=-1)
    finite = np.isfinite(logits).all(axis=-1)
    if not finite.all():
        entropy = np.where(finite, entropy, np.inf)
    return probs, entropy


def entropy_from_probs(probs: np.ndarray) -> np.ndarray:
    """Entropy of explicit probability rows (N, C).

    Exact at the boundary: a zero probability contributes exactly 0
    (the ``p log p`` limit), not ``0 * log(eps)``; a row containing
    NaN/inf (or a negative "probability") evaluates to ``+inf`` so a
    corrupted distribution can never win the arg-min gate.
    """
    probs = np.asarray(probs, dtype=float)
    valid = (np.isfinite(probs) & (probs >= 0.0)).all(axis=-1)
    safe = np.where(valid[..., None] & (probs > 0.0), probs, 1.0)
    entropy = -(safe * np.log(safe)).sum(axis=-1)
    return np.where(valid, entropy, np.inf)


def entropy_matrix(experts: list[Module], x: np.ndarray) -> np.ndarray:
    """The matrix **H** of Algorithm 2: shape (N, K), entry (n, i) is the
    predictive entropy of Expert i on sample n.

    Experts are evaluated in eval mode under ``no_grad`` (the gate treats
    expert uncertainties as constants).
    """
    xs = Tensor(np.asarray(x))
    columns = []
    with no_grad():
        for expert in experts:
            was_training = expert.training
            expert.eval()
            logits = expert(xs)
            if was_training:
                expert.train()
            columns.append(predictive_entropy(logits))
    return np.stack(columns, axis=1)


def mean_entropy(H: np.ndarray) -> np.ndarray:
    """``E(x)`` per sample: mean entropy over the K experts. Shape (N,)."""
    return np.asarray(H).mean(axis=1)


def abs_deviation(H: np.ndarray) -> np.ndarray:
    """``D(x)`` per sample: mean |H_i - E(x)| over experts. Shape (N,)."""
    H = np.asarray(H)
    e = H.mean(axis=1, keepdims=True)
    return np.abs(H - e).mean(axis=1)


def relative_mean_abs_deviation(H: np.ndarray) -> float:
    """``Delta``: batch average of D(x)/E(x) (Sec. IV-B).

    A small floor on E(x) guards against all-zero entropy rows (an expert
    that is perfectly certain of everything).
    """
    H = np.asarray(H)
    e = np.maximum(mean_entropy(H), _EPS)
    return float((abs_deviation(H) / e).mean())
