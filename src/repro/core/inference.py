"""TeamNet inference (Section V).

Each expert predicts and reports its predictive entropy; the ``arg min``
gate selects, per sample, the prediction of the least-uncertain expert
(Figure 4).  A (weighted) majority vote combiner is also provided — the
paper discusses and rejects it ("considering the prediction of 'non-expert'
can be detrimental"), and our ablation bench quantifies that.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass

import numpy as np

from ..nn import Module, Tensor, no_grad
from ..nn import functional as F
from ..nn.executor import compile_expert
from .entropy import predictive_entropy

__all__ = ["ExpertOutput", "argmin_select", "majority_vote",
           "expert_forward", "expert_forward_segments", "TeamInference",
           "ENGINES", "validate_engine", "compiled_expert_for"]

#: Inference engines selectable throughout the serving stack.
#: ``tape``     — the autograd forward (reference semantics).
#: ``compiled`` — traced flat-op executor, float weights
#:                (byte-identical for linear/relu networks,
#:                tolerance-equivalent once conv+bn folding kicks in).
ENGINES = ("tape", "compiled")


def validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of "
                         f"{ENGINES}")
    return engine


# Compiled executors per expert module, keyed by input signature.  A
# WeakKeyDictionary so redeploying (swapping the module object) drops the
# stale program with the old weights.
_COMPILED: "weakref.WeakKeyDictionary[Module, dict]" = \
    weakref.WeakKeyDictionary()
_COMPILED_LOCK = threading.Lock()


def compiled_expert_for(expert: Module, x: np.ndarray):
    """Fetch (or lazily build) the compiled executor for ``expert`` at
    the input signature of ``x`` (feature shape + dtype; batch is free)."""
    key = (x.shape[1:], x.dtype.str)
    with _COMPILED_LOCK:
        per_expert = _COMPILED.get(expert)
        if per_expert is None:
            per_expert = {}
            _COMPILED[expert] = per_expert
        compiled = per_expert.get(key)
    if compiled is None:
        compiled = compile_expert(expert, x)
        with _COMPILED_LOCK:
            per_expert[key] = compiled
    return compiled


@dataclass
class ExpertOutput:
    """One expert's inference result on a batch."""

    probs: np.ndarray      # (N, C) softmax probabilities
    entropy: np.ndarray    # (N,) predictive entropy

    @property
    def predictions(self) -> np.ndarray:
        return self.probs.argmax(axis=1)


def expert_forward(expert: Module, x: np.ndarray,
                   engine: str = "tape") -> ExpertOutput:
    """Run one expert in eval mode and compute (probs, entropy).

    ``engine`` selects the forward implementation (see :data:`ENGINES`).
    The compiled engine computes softmax/entropy with the exact numpy
    expressions the tape ops use, so for networks the executor replays
    byte-identically the whole ``ExpertOutput`` is byte-identical too.
    """
    if engine != "tape":
        validate_engine(engine)
        x = np.asarray(x)
        compiled = compiled_expert_for(expert, x)
        logits = compiled.run(x)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=-1, keepdims=True)
        return ExpertOutput(probs=probs, entropy=predictive_entropy(logits))
    was_training = expert.training
    expert.eval()
    with no_grad():
        logits = expert(Tensor(np.asarray(x)))
        probs = F.softmax(logits, axis=-1).data
    if was_training:
        expert.train()
    return ExpertOutput(probs=probs, entropy=predictive_entropy(logits))


def expert_forward_segments(expert: Module, x: np.ndarray,
                            segments: list[int] | None,
                            engine: str = "tape") -> ExpertOutput:
    """Run a coalesced batch whose rows belong to ``segments`` requests.

    ``segments`` lists the per-request row counts, in order, summing to
    ``len(x)``.  With 0 or 1 segments this is exactly
    :func:`expert_forward`.  With more, each request's rows are forwarded
    *separately* and the results concatenated — which makes every float
    in the output bit-identical to what the request would have produced
    alone.  (A single fused matmul is not row-wise bit-stable: BLAS may
    pick different reduction blockings for different batch shapes, so
    coalescing requests into one forward perturbs probabilities by ULPs.
    Softmax and entropy are per-row; only the matmul couples rows, and
    this splits it back apart.)
    """
    x = np.asarray(x)
    if segments is None or len(segments) <= 1:
        return expert_forward(expert, x, engine=engine)
    if sum(segments) != len(x):
        raise ValueError(f"segments {segments} do not cover {len(x)} rows")
    outputs = []
    offset = 0
    for rows in segments:
        outputs.append(expert_forward(expert, x[offset:offset + rows],
                                      engine=engine))
        offset += rows
    return ExpertOutput(
        probs=np.concatenate([o.probs for o in outputs], axis=0),
        entropy=np.concatenate([o.entropy for o in outputs], axis=0))


def argmin_select(outputs: list[ExpertOutput]) -> tuple[np.ndarray, np.ndarray]:
    """The arg-min gate of Figure 4.

    Returns ``(predictions, winner)``: per-sample class prediction from the
    least-uncertain expert, and the index of that expert.
    """
    if not outputs:
        raise ValueError("no expert outputs to select from")
    entropies = np.stack([o.entropy for o in outputs], axis=1)  # (N, K)
    winner = entropies.argmin(axis=1)
    preds = np.stack([o.predictions for o in outputs], axis=1)  # (N, K)
    n = preds.shape[0]
    return preds[np.arange(n), winner], winner


def majority_vote(outputs: list[ExpertOutput],
                  weighted: bool = False) -> np.ndarray:
    """Ensemble-style combiner (Sec. V's rejected alternative).

    Unweighted: one vote per expert.  Weighted: votes weighted by
    ``1/(entropy + eps)`` so confident experts count more.
    """
    if not outputs:
        raise ValueError("no expert outputs to vote over")
    num_classes = outputs[0].probs.shape[1]
    n = outputs[0].probs.shape[0]
    tally = np.zeros((n, num_classes))
    for out in outputs:
        weight = 1.0 / (out.entropy + 1e-6) if weighted else np.ones(n)
        tally[np.arange(n), out.predictions] += weight
    return tally.argmax(axis=1)


class TeamInference:
    """Single-process inference over a team of experts (Figure 4).

    This is the *functional* reference implementation: the distributed
    socket runtime (:mod:`repro.distributed.teamnet_runtime`) must produce
    byte-identical selections (asserted in the integration tests).
    """

    def __init__(self, experts: list[Module], engine: str = "tape"):
        if not experts:
            raise ValueError("need at least one expert")
        self.experts = experts
        self.engine = validate_engine(engine)

    def forward_all(self, x: np.ndarray) -> list[ExpertOutput]:
        return [expert_forward(e, x, engine=self.engine)
                for e in self.experts]

    def predict(self, x: np.ndarray) -> np.ndarray:
        preds, _ = argmin_select(self.forward_all(x))
        return preds

    def predict_with_winner(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return argmin_select(self.forward_all(x))

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(x) == np.asarray(y)).mean())
