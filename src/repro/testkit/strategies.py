"""Hypothesis-free property-based generators (pure numpy).

Every generator takes an explicit ``np.random.Generator`` and returns a
plain value, so a property test is just a loop over derived seeds:

    for case in range(50):
        rng = strategies.rng_from(SEED, case)
        H = strategies.logits(rng, strategies.batch_size(rng), 4)
        ...assert the property...

Failures reproduce from ``(SEED, case)`` alone — the generators never
touch global RNG state, wall clocks, or os entropy.  The sampled space
is deliberately biased toward the shapes that have historically broken
things: batch 1, odd spatial sizes, non-square kernels, near-tied
probability rows, float32/float64 mixes.
"""

from __future__ import annotations

import numpy as np

from ..nn import (MLP, BatchNorm2d, Conv2d, Flatten, LayerNorm, Linear,
                  Module, ReLU, Sequential, Tensor, no_grad)
from .faults import REPLY, REQUEST, FaultSchedule, LinkFaults

__all__ = [
    "rng_from", "batch_size", "num_classes", "feature_dim", "float_dtype",
    "array", "logits", "prob_rows", "temperature", "entropy_matrix",
    "linear_case", "conv_case", "array_spec", "link_faults",
    "fault_schedule", "expert_team", "executor_case",
]


def rng_from(*entropy: int) -> np.random.Generator:
    """A Generator keyed by a tuple of integers (seed, case index, ...)."""
    return np.random.default_rng(tuple(int(e) for e in entropy))


# ----------------------------------------------------------------- scalars
def batch_size(rng: np.random.Generator, high: int = 8) -> int:
    """Batch sizes with extra mass on the classic off-by-one killer, 1."""
    if rng.random() < 0.3:
        return 1
    return int(rng.integers(2, high + 1))


def num_classes(rng: np.random.Generator, low: int = 2, high: int = 10) -> int:
    return int(rng.integers(low, high + 1))


def feature_dim(rng: np.random.Generator, low: int = 2, high: int = 24) -> int:
    dim = int(rng.integers(low, high + 1))
    return dim | 1 if rng.random() < 0.5 else dim  # bias toward odd


def float_dtype(rng: np.random.Generator) -> np.dtype:
    return np.dtype(np.float32 if rng.random() < 0.5 else np.float64)


def temperature(rng: np.random.Generator, low: float = 0.25,
                high: float = 400.0) -> float:
    """Log-uniform soft-argmin temperature ``b`` (large b = low temp)."""
    return float(np.exp(rng.uniform(np.log(low), np.log(high))))


# ------------------------------------------------------------------ arrays
def array(rng: np.random.Generator, shape: tuple[int, ...],
          dtype=np.float64, scale: float = 2.0) -> np.ndarray:
    return (rng.standard_normal(shape) * scale).astype(dtype)


def logits(rng: np.random.Generator, n: int, c: int,
           dtype=np.float64) -> np.ndarray:
    """Logit rows across regimes: flat, peaked, and wildly scaled."""
    scale = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
    return (rng.standard_normal((n, c)) * scale).astype(dtype)


def prob_rows(rng: np.random.Generator, n: int, c: int) -> np.ndarray:
    """Probability rows biased toward the hard cases: near-one-hot rows
    (entropy ~ 0) and near-uniform rows (entropy ~ ln C)."""
    alphas = rng.choice([0.05, 0.3, 1.0, 5.0, 50.0], size=n)
    rows = np.stack([rng.dirichlet(np.full(c, a)) for a in alphas])
    return rows / rows.sum(axis=1, keepdims=True)


def entropy_matrix(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Non-negative (N, K) entropy matrices, some with near-tied rows
    (the razor-thin arg-min boundaries that stall naive gates)."""
    H = rng.uniform(0.0, 2.5, size=(n, k))
    ties = rng.random(n) < 0.3
    H[ties] = H[ties, :1] + rng.uniform(0, 1e-6, size=(ties.sum(), k))
    return H


# ------------------------------------------------------------ layer configs
def linear_case(rng: np.random.Generator) -> dict:
    """Randomized Linear shapes (odd dims, batch 1) for gradcheck."""
    return {
        "batch": batch_size(rng, high=5),
        "in_features": feature_dim(rng, 1, 9),
        "out_features": feature_dim(rng, 1, 7),
    }


def conv_case(rng: np.random.Generator) -> dict:
    """Randomized conv2d shapes: odd inputs, non-square kernels, batch 1.

    Every sampled config is valid (output dims >= 1) by construction.
    """
    kh = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 3))
    min_h = max(1, kh - 2 * padding)
    min_w = max(1, kw - 2 * padding)
    return {
        "batch": batch_size(rng, high=3),
        "in_channels": int(rng.integers(1, 4)),
        "out_channels": int(rng.integers(1, 4)),
        "height": int(rng.integers(min_h, min_h + 5)),
        "width": int(rng.integers(min_w, min_w + 5)),
        "kernel": (kh, kw),
        "stride": stride,
        "padding": padding,
    }


# -------------------------------------------------------------- wire protocol
_PROTOCOL_DTYPES = ("float64", "float32", "int64", "int32", "uint8", "bool")


def array_spec(rng: np.random.Generator) -> np.ndarray:
    """Random protocol payloads: scalars, empties, odd shapes, all dtypes."""
    dtype = np.dtype(str(rng.choice(_PROTOCOL_DTYPES)))
    ndim = int(rng.integers(0, 4))
    shape = tuple(int(rng.integers(0, 5)) for _ in range(ndim))
    if dtype == np.bool_:
        return rng.random(shape) < 0.5
    if dtype.kind in "iu":
        return rng.integers(0, 100, size=shape).astype(dtype)
    return (rng.standard_normal(shape) * 10).astype(dtype)


# ------------------------------------------------------------------- faults
def link_faults(rng: np.random.Generator, allow_kill: bool = True,
                max_latency: float = 2.0) -> LinkFaults:
    """One direction's fault rates; each knob independently active."""
    drop = float(rng.uniform(0, 0.5)) if rng.random() < 0.4 else 0.0
    duplicate = float(rng.uniform(0, 0.4)) if rng.random() < 0.3 else 0.0
    reorder = float(rng.uniform(0, 0.4)) if rng.random() < 0.3 else 0.0
    if rng.random() < 0.5:
        lo = float(rng.uniform(0, max_latency / 2))
        hi = float(rng.uniform(lo, max_latency))
        latency = (lo, hi)
    else:
        latency = (0.0, 0.0)
    kill_after = None
    if allow_kill and rng.random() < 0.2:
        kill_after = int(rng.integers(0, 3))
    return LinkFaults(drop=drop, duplicate=duplicate, reorder=reorder,
                      latency=latency, kill_after=kill_after)


def fault_schedule(rng: np.random.Generator,
                   target_addresses: list[tuple[str, int]] | None = None,
                   benign_fraction: float = 0.35,
                   max_latency: float = 2.0) -> FaultSchedule:
    """A whole-network schedule: benign with probability
    ``benign_fraction``, otherwise random per-direction faults, sometimes
    concentrated on a single targeted worker."""
    seed = int(rng.integers(0, 2**31))
    if rng.random() < benign_fraction:
        return FaultSchedule(seed=seed)
    per_address = {}
    if target_addresses and rng.random() < 0.4:
        victim = target_addresses[int(rng.integers(len(target_addresses)))]
        per_address[tuple(victim)] = {
            REQUEST: link_faults(rng, max_latency=max_latency),
            REPLY: link_faults(rng, max_latency=max_latency),
        }
        return FaultSchedule(seed=seed, per_address=per_address)
    return FaultSchedule(
        seed=seed,
        request=link_faults(rng, max_latency=max_latency),
        reply=link_faults(rng, max_latency=max_latency))


# ---------------------------------------------------------------- executor
def executor_case(rng: np.random.Generator) -> tuple[Module, np.ndarray]:
    """A randomized ``(model, example)`` pair for tape-vs-compiled replay.

    Samples across the three architecture families the executor lowers
    differently — plain MLPs (linear+relu fusion), conv stacks with
    batch-norm (conv+bn folding; half of them feed a second conv), and
    layer-normed MLPs (fallback replay of mean/var/rsqrt ops) — with the
    usual hostile shapes: batch 1, odd feature dims, non-square kernels,
    float32/float64 inputs.  Batch-norm running statistics are warmed by
    training-mode forwards first, so the folded eval path sees
    non-trivial mean/var.  The model is returned in eval mode.
    """
    family = ("mlp", "conv", "layernorm")[int(rng.integers(0, 3))]
    dtype = float_dtype(rng)
    n = batch_size(rng, high=5)
    seed = rng_from(int(rng.integers(0, 2 ** 31)))
    if family == "mlp":
        d = feature_dim(rng, 2, 16)
        model = MLP(d, num_classes(rng), depth=int(rng.integers(1, 4)),
                    width=int(rng.integers(3, 10)), rng=seed)
        x = array(rng, (n, d), dtype=dtype)
    elif family == "conv":
        cfg = conv_case(rng)
        cin, cout = cfg["in_channels"], cfg["out_channels"]
        kh, kw = cfg["kernel"]
        h, w = cfg["height"], cfg["width"]
        out_h = (h + 2 * cfg["padding"] - kh) // cfg["stride"] + 1
        out_w = (w + 2 * cfg["padding"] - kw) // cfg["stride"] + 1
        layers = [Conv2d(cin, cout, (kh, kw), stride=cfg["stride"],
                         padding=cfg["padding"], rng=seed)]
        if rng.random() < 0.7:
            layers.append(BatchNorm2d(cout))
        if rng.random() < 0.7:
            layers.append(ReLU())
        if rng.random() < 0.5:
            # A conv fed by a conv: its input is the non-contiguous NCHW
            # view of an NHWC buffer that a conv emits.
            pad2 = int(rng.integers(0, 3))
            stride2 = int(rng.integers(1, 3))
            kh2 = min(int(rng.integers(1, 4)), out_h + 2 * pad2)
            kw2 = min(int(rng.integers(1, 4)), out_w + 2 * pad2)
            cout2 = int(rng.integers(1, 4))
            layers.append(Conv2d(cout, cout2, (kh2, kw2), stride=stride2,
                                 padding=pad2, rng=seed))
            cout = cout2
            out_h = (out_h + 2 * pad2 - kh2) // stride2 + 1
            out_w = (out_w + 2 * pad2 - kw2) // stride2 + 1
        layers += [Flatten(),
                   Linear(cout * out_h * out_w, num_classes(rng), rng=seed)]
        model = Sequential(*layers)
        x = array(rng, (n, cin, h, w), dtype=dtype)
    else:
        d = feature_dim(rng, 2, 12)
        width = int(rng.integers(3, 9))
        model = Sequential(Linear(d, width, rng=seed), LayerNorm(width),
                           ReLU(), Linear(width, num_classes(rng), rng=seed))
        x = array(rng, (n, d), dtype=dtype)
    # Warm any batch-norm running statistics so eval-mode folding is
    # exercised against non-default mean/var.
    with no_grad():
        for _ in range(2):
            model(Tensor(array(rng, x.shape, dtype=dtype)))
    model.eval()
    return model, x


# ------------------------------------------------------------------- teams
def expert_team(rng: np.random.Generator, num_experts: int | None = None,
                in_dim: int | None = None, classes: int | None = None
                ) -> tuple[list[Module], np.ndarray]:
    """A random team of small MLP experts plus a matching input batch."""
    k = num_experts if num_experts is not None else int(rng.integers(2, 5))
    d = in_dim if in_dim is not None else feature_dim(rng, 2, 16)
    c = classes if classes is not None else num_classes(rng)
    dtype = float_dtype(rng)
    experts = [
        MLP(d, c, depth=int(rng.integers(1, 3)), width=int(rng.integers(3, 9)),
            rng=rng_from(int(rng.integers(0, 2**31)), i))
        for i in range(k)
    ]
    x = array(rng, (batch_size(rng), d), dtype=dtype)
    return experts, x
