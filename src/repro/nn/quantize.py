"""Post-training weight quantization for edge deployment.

Edge devices are memory-bound (the paper's memory-% columns): shipping
expert weights as int8 instead of float32 cuts the model's resident and
over-the-air size by 4x.  This module implements symmetric per-channel
weight-only quantization — weights are stored as int8 plus a per-output-
channel scale and dequantized on the fly at load time, which preserves
the float compute path (realistic for NEON/CUDA edge inference where
weight *storage*, not arithmetic, is the bottleneck we model).

API:
    qstate = quantize_state_dict(model.state_dict())
    state  = dequantize_state_dict(qstate)      # load back into a model
    quantized_size_bytes(qstate)                 # what ships to the device
"""

from __future__ import annotations

import numpy as np

from .layers import Module

__all__ = ["quantize_array", "dequantize_array", "quantize_state_dict",
           "dequantize_state_dict", "quantized_size_bytes",
           "quantize_model", "quantization_error", "AlreadyQuantizedError"]


class AlreadyQuantizedError(ValueError):
    """Raised when quantizing a state dict that is already quantized.

    Double quantization would silently stack two rounding errors (and
    create ``.q8.q8`` entries no loader understands), so it is rejected
    outright."""

_QMAX = 127  # int8 symmetric range


def quantize_array(array: np.ndarray, axis: int = 0
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-channel int8 quantization along ``axis``.

    Returns ``(q, scales)`` with ``array ~= q * scales`` (scales broadcast
    along ``axis``).  All-zero channels get scale 1 to avoid division by
    zero.
    """
    array = np.asarray(array, dtype=np.float32)
    if array.ndim == 0:
        scale = max(abs(float(array)), 1e-12) / _QMAX
        q = np.round(array / scale).astype(np.int8)
        return q, np.float32(scale)
    moved = np.moveaxis(array, axis, 0)
    flat = moved.reshape(moved.shape[0], -1)
    peaks = np.abs(flat).max(axis=1)
    scales = np.where(peaks > 0, peaks / _QMAX, 1.0).astype(np.float32)
    q = np.clip(np.round(flat / scales[:, None]), -_QMAX, _QMAX)
    q = np.moveaxis(q.reshape(moved.shape), 0, axis).astype(np.int8)
    return q, scales


def dequantize_array(q: np.ndarray, scales: np.ndarray,
                     axis: int = 0) -> np.ndarray:
    """Inverse of :func:`quantize_array` (up to rounding error)."""
    q = np.asarray(q, dtype=np.float32)
    if q.ndim == 0 or np.ndim(scales) == 0:
        return (q * np.float32(scales)).astype(np.float32)
    shape = [1] * q.ndim
    shape[axis] = -1
    return (q * np.asarray(scales, dtype=np.float32).reshape(shape)
            ).astype(np.float32)


def _should_quantize(name: str, value: np.ndarray) -> bool:
    """Quantize weight matrices/kernels; keep biases, batch-norm
    parameters and running statistics in float (they are tiny and
    numerically sensitive)."""
    return (name.endswith("weight") and not name.startswith("buffer.")
            and value.ndim >= 2)


def quantize_state_dict(state: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Quantize every eligible entry; returns a flat dict with ``.q8`` and
    ``.scale`` entries for quantized tensors and passthrough float entries
    for the rest."""
    for name in state:
        if name.endswith(".q8") or name.endswith(".scale"):
            raise AlreadyQuantizedError(
                f"state dict entry {name!r} is already quantized; "
                "dequantize_state_dict() it first")
    out: dict[str, np.ndarray] = {}
    for name, value in state.items():
        if _should_quantize(name, value):
            q, scales = quantize_array(value, axis=0)
            out[name + ".q8"] = q
            out[name + ".scale"] = scales
        else:
            out[name] = np.asarray(value)
    return out


def dequantize_state_dict(qstate: dict[str, np.ndarray]
                          ) -> dict[str, np.ndarray]:
    """Reconstruct a float state dict loadable by ``load_state_dict``."""
    out: dict[str, np.ndarray] = {}
    for name, value in qstate.items():
        if name.endswith(".q8"):
            base = name[:-3]
            out[base] = dequantize_array(value, qstate[base + ".scale"],
                                         axis=0)
        elif name.endswith(".scale"):
            continue
        else:
            out[name] = value
    return out


def quantized_size_bytes(qstate: dict[str, np.ndarray]) -> int:
    """Total bytes the quantized state occupies (what ships to a device)."""
    return int(sum(v.nbytes for v in qstate.values()))


def quantize_model(model: Module) -> None:
    """Quantize-dequantize a model's weights in place (simulated int8
    deployment: the accuracy the device will see)."""
    state = model.state_dict()
    model.load_state_dict(dequantize_state_dict(quantize_state_dict(state)))


def quantization_error(state: dict[str, np.ndarray]) -> float:
    """Max relative reconstruction error across quantized tensors."""
    qstate = quantize_state_dict(state)
    restored = dequantize_state_dict(qstate)
    worst = 0.0
    for name, value in state.items():
        if not _should_quantize(name, value):
            continue
        denom = max(float(np.abs(value).max()), 1e-12)
        err = float(np.abs(restored[name] - value).max()) / denom
        worst = max(worst, err)
    return worst
