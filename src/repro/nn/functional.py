"""Functional neural-network operations.

Stateless ops built on the autograd engine: activations, softmax family,
convolution/pooling (im2col-based), dropout and the Shake-Shake stochastic
branch combinator used by the paper's CIFAR-10 CNNs.
"""

from __future__ import annotations

import numpy as np

from .autograd import Function, is_grad_enabled
from .tensor import Concatenate, Pad, Stack, Tensor, Where, _wrap

__all__ = [
    "relu", "tanh", "sigmoid", "softmax", "log_softmax", "concatenate",
    "stack", "pad", "where", "one_hot", "conv2d", "max_pool2d", "avg_pool2d",
    "dropout", "shake_shake", "linear",
]


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0)."""
    return x.relu()


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid."""
    return x.sigmoid()


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (torch layout: weight is (out, in))."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def concatenate(tensors, axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    return Concatenate.apply(*[_wrap(t) for t in tensors], axis=axis)


def stack(tensors, axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    return Stack.apply(*[_wrap(t) for t in tensors], axis=axis)


def pad(x: Tensor, pad_width) -> Tensor:
    """Differentiable zero-padding (numpy pad_width convention)."""
    return Pad.apply(x, pad_width=tuple(tuple(p) for p in pad_width))


def where(cond: np.ndarray, a, b) -> Tensor:
    """Differentiable elementwise select on a boolean ``cond``."""
    return Where.apply(np.asarray(cond, dtype=bool), _wrap(a), _wrap(b))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a float one-hot encoding of integer ``labels``."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels.ravel()] = 1.0
    return out.reshape(*labels.shape, num_classes)


# --------------------------------------------------------------------------
# Convolution / pooling via im2col
# --------------------------------------------------------------------------
def _im2col(x, kh, kw, stride, padding):
    """Return (cols, out_h, out_w) with cols of shape (n*p, c*kh*kw).

    The columns are gathered with one copy from a read-only window view
    into a buffer ordered (c, kh, kw, n, out_h, out_w), so every inner
    run of the copy is an image row rather than a kw-element kernel row;
    ``cols`` is the transposed view of that buffer.  Works on any input
    strides (a conv's own NCHW output is a transposed view).  The heavy
    lifting downstream is a single BLAS matmul.
    """
    n, c, h, w = x.shape
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding),
                          dtype=x.dtype)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded
    hp, wp = x.shape[2], x.shape[3]
    out_h = (hp - kh) // stride + 1
    out_w = (wp - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kh, kw, n, out_h, out_w),
        strides=(sc, sh, sw, sn, sh * stride, sw * stride),
        writeable=False,
    )
    cols = windows.copy().reshape(c * kh * kw, n * out_h * out_w).T
    return cols, out_h, out_w


def _col2im(gcols, x_shape, kh, kw, stride, padding, out_h, out_w):
    """Scatter-add column gradients back to input layout.

    ``gcols`` has shape (n*p, c*kh*kw); we accumulate per kernel offset
    with kh*kw vectorized adds (far cheaper than np.add.at).
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((n, c, hp, wp), dtype=gcols.dtype)
    g = gcols.reshape(n, out_h, out_w, c, kh, kw)
    for ky in range(kh):
        for kx in range(kw):
            out[:, :, ky:ky + out_h * stride:stride,
                kx:kx + out_w * stride:stride] += \
                g[:, :, :, :, ky, kx].transpose(0, 3, 1, 2)
    if padding > 0:
        return out[:, :, padding:-padding, padding:-padding]
    return out


class Conv2d(Function):
    """2-D cross-correlation: input (N,C,H,W), weight (O,C,KH,KW)."""

    def forward(self, x, weight, bias, stride, padding):
        o, c, kh, kw = weight.shape
        n = x.shape[0]
        cols, out_h, out_w = _im2col(x, kh, kw, stride, padding)
        w_mat = weight.reshape(o, -1)
        out = cols @ w_mat.T                      # (n*p, o) single gemm
        if bias is not None:
            out = out + bias
        self.save_for_backward(x.shape, weight, cols, stride, padding,
                               bias is not None, out_h, out_w)
        return out.reshape(n, out_h, out_w, o).transpose(0, 3, 1, 2)

    def backward(self, grad):
        (x_shape, weight, cols, stride, padding, has_bias,
         out_h, out_w) = self.saved
        o, c, kh, kw = weight.shape
        grad_mat = np.ascontiguousarray(
            grad.transpose(0, 2, 3, 1)).reshape(-1, o)   # (n*p, o)
        gw = (grad_mat.T @ cols).reshape(weight.shape)
        gb = grad_mat.sum(axis=0) if has_bias else None
        gcols = grad_mat @ weight.reshape(o, -1)          # (n*p, c*kh*kw)
        gx = _col2im(gcols, x_shape, kh, kw, stride, padding, out_h, out_w)
        if has_bias:
            return gx, gw, gb
        return gx, gw


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """Differentiable 2-D convolution (cross-correlation)."""
    return Conv2d.apply(x, weight, bias, stride=stride, padding=padding)


class MaxPool2d(Function):
    def forward(self, x, kernel, stride):
        x = np.ascontiguousarray(x)
        n, c, h, w = x.shape
        out_h = (h - kernel) // stride + 1
        out_w = (w - kernel) // stride + 1
        # Windowed view of the input; safe because we only read from it.
        strides = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, out_h, out_w, kernel, kernel),
            strides=(strides[0], strides[1], strides[2] * stride,
                     strides[3] * stride, strides[2], strides[3]),
        )
        flat = windows.reshape(n, c, out_h, out_w, -1)
        arg = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
        self.save_for_backward(x.shape, arg, kernel, stride)
        return out

    def backward(self, grad):
        x_shape, arg, kernel, stride = self.saved
        n, c, h, w = x_shape
        out_h, out_w = arg.shape[2], arg.shape[3]
        gx = np.zeros(x_shape, dtype=grad.dtype)
        ky, kx = np.unravel_index(arg, (kernel, kernel))
        ni, ci, oi, oj = np.indices(arg.shape)
        rows = oi * stride + ky
        cols = oj * stride + kx
        np.add.at(gx, (ni, ci, rows, cols), grad)
        return (gx,)


def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """2-D max pooling over (N, C, H, W)."""
    return MaxPool2d.apply(x, kernel=kernel, stride=stride or kernel)


class AvgPool2d(Function):
    def forward(self, x, kernel, stride):
        x = np.ascontiguousarray(x)
        n, c, h, w = x.shape
        out_h = (h - kernel) // stride + 1
        out_w = (w - kernel) // stride + 1
        strides = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x,
            shape=(n, c, out_h, out_w, kernel, kernel),
            strides=(strides[0], strides[1], strides[2] * stride,
                     strides[3] * stride, strides[2], strides[3]),
        )
        self.save_for_backward(x.shape, kernel, stride, out_h, out_w)
        return windows.mean(axis=(-1, -2))

    def backward(self, grad):
        x_shape, kernel, stride, out_h, out_w = self.saved
        gx = np.zeros(x_shape, dtype=grad.dtype)
        scale = 1.0 / (kernel * kernel)
        for dy in range(kernel):
            for dx in range(kernel):
                gx[:, :, dy:dy + out_h * stride:stride,
                   dx:dx + out_w * stride:stride] += grad * scale
        return (gx,)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """2-D average pooling over (N, C, H, W)."""
    return AvgPool2d.apply(x, kernel=kernel, stride=stride or kernel)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the spatial dims, returning (N, C)."""
    return x.mean(axis=(2, 3))


# --------------------------------------------------------------------------
# Batch normalization (fused)
# --------------------------------------------------------------------------
class BatchNorm(Function):
    """Fused batch norm over reduction ``axes`` with affine transform.

    Fusing avoids ~10 full-tensor temporaries per layer compared to
    composing from primitives — batch norm dominates Shake-Shake CNN
    training time otherwise.
    """

    def forward(self, x, weight, bias, mean, var, eps, axes):
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mean) * inv_std
        shape = mean.shape
        self.save_for_backward(xhat, inv_std, weight.reshape(shape), axes,
                               mean.size)
        return xhat * weight.reshape(shape) + bias.reshape(shape)

    def backward(self, grad):
        xhat, inv_std, weight, axes, channels = self.saved
        gw = (grad * xhat).sum(axis=axes).reshape(-1)
        gb = grad.sum(axis=axes).reshape(-1)
        dxhat = grad * weight
        count = dxhat.size // channels
        # Training-mode backward: mean/var depend on x.
        mean_dxhat = dxhat.mean(axis=axes, keepdims=True)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=axes, keepdims=True)
        gx = inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)
        del count
        return gx, gw, gb


class BatchNormEval(Function):
    """Batch norm with frozen statistics (inference semantics)."""

    def forward(self, x, weight, bias, mean, var, eps, axes):
        inv_std = 1.0 / np.sqrt(var + eps)
        shape = mean.shape
        scale = weight.reshape(shape) * inv_std
        self.save_for_backward(scale, axes, (x - mean) * inv_std)
        return x * scale + (bias.reshape(shape) - mean * scale)

    def backward(self, grad):
        scale, axes, xhat = self.saved
        gw = (grad * xhat).sum(axis=axes).reshape(-1)
        gb = grad.sum(axis=axes).reshape(-1)
        return grad * scale, gw, gb


def batch_norm(x: Tensor, weight: Tensor, bias: Tensor, mean: np.ndarray,
               var: np.ndarray, eps: float, axes, training: bool) -> Tensor:
    """Apply (fused) batch normalization.

    ``mean``/``var`` are plain arrays shaped for broadcasting: the batch
    statistics in training mode, the running statistics in eval mode.
    """
    cls = BatchNorm if training else BatchNormEval
    return cls.apply(x, weight, bias, mean=mean, var=var, eps=eps,
                     axes=axes)


# --------------------------------------------------------------------------
# Stochastic ops
# --------------------------------------------------------------------------
class Dropout(Function):
    def forward(self, x, p, rng):
        keep = 1.0 - p
        mask = ((rng.random(x.shape) < keep) / keep).astype(x.dtype)
        self.save_for_backward(mask)
        return x * mask

    def backward(self, grad):
        (mask,) = self.saved
        return (grad * mask,)


def dropout(x: Tensor, p: float = 0.5, training: bool = True,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity when ``training`` is False or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    rng = rng if rng is not None else np.random.default_rng()
    return Dropout.apply(x, p=float(p), rng=rng)


class ShakeShake(Function):
    """Shake-Shake regularization (Gastaldi 2017) over two branches.

    Forward: ``alpha * a + (1 - alpha) * b`` with per-sample ``alpha`` drawn
    uniform in [0, 1]. Backward uses an *independent* per-sample ``beta``,
    which is the defining property of shake-shake.  In eval mode both
    coefficients are fixed at 0.5 (the expectation).
    """

    def forward(self, a, b, alpha, beta):
        self.save_for_backward(beta)
        return alpha * a + (1.0 - alpha) * b

    def backward(self, grad):
        (beta,) = self.saved
        return grad * beta, grad * (1.0 - beta)


def shake_shake(a: Tensor, b: Tensor, training: bool = True,
                rng: np.random.Generator | None = None) -> Tensor:
    """Combine two branch outputs with shake-shake stochastic weights."""
    if not training:
        half = 0.5
        return ShakeShake.apply(a, b, alpha=half, beta=half)
    rng = rng if rng is not None else np.random.default_rng()
    shape = (a.shape[0],) + (1,) * (a.ndim - 1)
    alpha = rng.random(shape, dtype=np.float32)
    beta = rng.random(shape, dtype=np.float32)
    return ShakeShake.apply(a, b, alpha=alpha, beta=beta)
