"""Finite-difference gradient checks for every differentiable op.

Each check builds a scalar loss from the op under test, runs backward, and
compares every input gradient against central finite differences in
float64.  These tests are the foundation the whole reproduction rests on.
"""

import numpy as np
import pytest

from repro.nn import Conv2d, Tensor
from repro.nn import functional as F
from repro.testkit import strategies


def numeric_grad(fn, arrays, index, eps=1e-6):
    """Central-difference gradient of scalar fn w.r.t. arrays[index]."""
    base = [a.copy() for a in arrays]
    grad = np.zeros_like(base[index])
    flat = grad.reshape(-1)
    target = base[index].reshape(-1)
    for i in range(target.size):
        orig = target[i]
        target[i] = orig + eps
        plus = fn(*base)
        target[i] = orig - eps
        minus = fn(*base)
        target[i] = orig
        flat[i] = (plus - minus) / (2 * eps)
    return grad


def direct_conv2d(x, w, b, stride, padding):
    """Cross-correlation by a loop over output pixels, in float64: an
    independent reference for ``F.conv2d``'s im2col + GEMM."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (wd + 2 * padding - kw) // stride + 1
    out = np.empty((n, o, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            patch = xp[:, :, i * stride:i * stride + kh,
                       j * stride:j * stride + kw]
            out[:, :, i, j] = np.tensordot(patch, w, axes=([1, 2, 3],
                                                         [1, 2, 3])) + b
    return out


def check(fn_tensor, fn_numpy, arrays, atol=1e-6, rtol=1e-4):
    """Assert analytic grads of fn_tensor match numeric grads of fn_numpy."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    loss = fn_tensor(*tensors)
    loss.backward()
    for i, t in enumerate(tensors):
        expected = numeric_grad(fn_numpy, [a.copy() for a in arrays], i)
        assert t.grad is not None, f"input {i} got no gradient"
        np.testing.assert_allclose(t.grad, expected, atol=atol, rtol=rtol,
                                   err_msg=f"gradient mismatch for input {i}")


class TestElementwise:
    def test_add_broadcast(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4,))
        check(lambda x, y: (x + y).sum(), lambda x, y: (x + y).sum(), [a, b])

    def test_sub_broadcast(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((3, 1))
        check(lambda x, y: (x - y).sum(), lambda x, y: (x - y).sum(), [a, b])

    def test_mul(self, rng):
        a = rng.standard_normal((5,))
        b = rng.standard_normal((5,))
        check(lambda x, y: (x * y).sum(), lambda x, y: (x * y).sum(), [a, b])

    def test_div(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.uniform(0.5, 2.0, (4, 3))
        check(lambda x, y: (x / y).sum(), lambda x, y: (x / y).sum(), [a, b])

    def test_neg_pow(self, rng):
        a = rng.uniform(0.5, 2.0, (6,))
        check(lambda x: (-(x**3)).sum(), lambda x: (-(x**3)).sum(), [a])

    def test_exp_log(self, rng):
        a = rng.uniform(0.5, 2.0, (4, 4))
        check(lambda x: (x.exp().log() * x).sum(),
              lambda x: (np.log(np.exp(x)) * x).sum(), [a])

    def test_sqrt(self, rng):
        a = rng.uniform(0.5, 2.0, (5,))
        check(lambda x: x.sqrt().sum(), lambda x: np.sqrt(x).sum(), [a])

    def test_abs(self, rng):
        a = rng.standard_normal((7,)) + 0.5  # keep away from 0
        check(lambda x: x.abs().sum(), lambda x: np.abs(x).sum(), [a])

    def test_tanh_sigmoid(self, rng):
        a = rng.standard_normal((3, 3))
        check(lambda x: x.tanh().sum(), lambda x: np.tanh(x).sum(), [a])
        check(lambda x: x.sigmoid().sum(),
              lambda x: (1 / (1 + np.exp(-x))).sum(), [a])

    def test_relu(self, rng):
        a = rng.standard_normal((10,)) + 0.3
        check(lambda x: x.relu().sum(), lambda x: np.maximum(x, 0).sum(), [a])

    def test_clip(self, rng):
        a = rng.standard_normal((8,)) * 2
        check(lambda x: x.clip(-1.0, 1.0).sum(),
              lambda x: np.clip(x, -1, 1).sum(), [a])


class TestMatmulReductions:
    def test_matmul_2d(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 5))
        check(lambda x, y: (x @ y).sum(), lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_batched(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 4, 5))
        check(lambda x, y: (x @ y).sum(), lambda x, y: (x @ y).sum(), [a, b])

    def test_matmul_broadcast_batch(self, rng):
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        check(lambda x, y: (x @ y).sum(), lambda x, y: (x @ y).sum(), [a, b])

    def test_sum_axis(self, rng):
        a = rng.standard_normal((3, 4, 5))
        check(lambda x: (x.sum(axis=1) ** 2).sum(),
              lambda x: (x.sum(axis=1) ** 2).sum(), [a])

    def test_mean_keepdims(self, rng):
        a = rng.standard_normal((4, 6))
        check(lambda x: (x * x.mean(axis=1, keepdims=True)).sum(),
              lambda x: (x * x.mean(axis=1, keepdims=True)).sum(), [a])

    def test_max(self, rng):
        a = rng.standard_normal((5, 7))
        check(lambda x: x.max(axis=1).sum(),
              lambda x: x.max(axis=1).sum(), [a])

    def test_min(self, rng):
        a = rng.standard_normal((5, 7))
        check(lambda x: x.min(axis=0).sum(),
              lambda x: x.min(axis=0).sum(), [a])

    def test_var(self, rng):
        a = rng.standard_normal((6, 3))
        check(lambda x: x.var(axis=0).sum(),
              lambda x: x.var(axis=0).sum(), [a], rtol=1e-3)


class TestShaping:
    def test_reshape_transpose(self, rng):
        a = rng.standard_normal((3, 8))
        check(lambda x: (x.reshape(6, 4).transpose() ** 2).sum(),
              lambda x: (x.reshape(6, 4).T ** 2).sum(), [a])

    def test_getitem(self, rng):
        a = rng.standard_normal((5, 6))
        check(lambda x: (x[1:4, ::2] ** 2).sum(),
              lambda x: (x[1:4, ::2] ** 2).sum(), [a])

    def test_getitem_fancy(self, rng):
        a = rng.standard_normal((6, 3))
        idx = np.array([0, 2, 2, 5])
        check(lambda x: (x[idx] ** 2).sum(),
              lambda x: (x[idx] ** 2).sum(), [a])

    def test_concatenate(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 3))
        check(lambda x, y: (F.concatenate([x, y], axis=0) ** 2).sum(),
              lambda x, y: (np.concatenate([x, y], axis=0) ** 2).sum(),
              [a, b])

    def test_stack(self, rng):
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((3, 2))
        check(lambda x, y: (F.stack([x, y], axis=1) ** 2).sum(),
              lambda x, y: (np.stack([x, y], axis=1) ** 2).sum(), [a, b])

    def test_pad(self, rng):
        a = rng.standard_normal((3, 3))
        pw = ((1, 2), (0, 1))
        check(lambda x: (F.pad(x, pw) ** 2).sum(),
              lambda x: (np.pad(x, pw) ** 2).sum(), [a])

    def test_where(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        cond = rng.random((4, 4)) > 0.5
        check(lambda x, y: (F.where(cond, x, y) ** 2).sum(),
              lambda x, y: (np.where(cond, x, y) ** 2).sum(), [a, b])

    def test_squeeze_unsqueeze(self, rng):
        a = rng.standard_normal((3, 1, 4))
        check(lambda x: (x.squeeze(1).unsqueeze(0) ** 2).sum(),
              lambda x: (x.squeeze(1)[None] ** 2).sum(), [a])


class TestSoftmaxFamily:
    def test_softmax(self, rng):
        a = rng.standard_normal((4, 6))
        w = rng.standard_normal((4, 6))
        check(lambda x: (F.softmax(x) * Tensor(w)).sum(),
              lambda x: (np.exp(x - x.max(-1, keepdims=True))
                         / np.exp(x - x.max(-1, keepdims=True)).sum(
                             -1, keepdims=True) * w).sum(), [a])

    def test_log_softmax(self, rng):
        a = rng.standard_normal((3, 5))
        w = rng.standard_normal((3, 5))

        def np_lsm(x):
            s = x - x.max(-1, keepdims=True)
            return s - np.log(np.exp(s).sum(-1, keepdims=True))

        check(lambda x: (F.log_softmax(x) * Tensor(w)).sum(),
              lambda x: (np_lsm(x) * w).sum(), [a])


class TestConvPool:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal((4,))

        def tensor_fn(xt, wt, bt):
            return (F.conv2d(xt, wt, bt, stride=stride,
                             padding=padding) ** 2).sum()

        def numpy_fn(xa, wa, ba):
            out = F.conv2d(Tensor(xa), Tensor(wa), Tensor(ba),
                           stride=stride, padding=padding).data
            return float((out ** 2).sum())

        check(tensor_fn, numpy_fn, [x, w, b], rtol=1e-3, atol=1e-5)

    def test_conv2d_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        check(lambda xt, wt: (F.conv2d(xt, wt, padding=1) ** 2).sum(),
              lambda xa, wa: float((F.conv2d(Tensor(xa), Tensor(wa),
                                             padding=1).data ** 2).sum()),
              [x, w], rtol=1e-3, atol=1e-5)

    def test_max_pool(self, rng):
        x = rng.standard_normal((2, 3, 6, 6))
        check(lambda xt: (F.max_pool2d(xt, 2) ** 2).sum(),
              lambda xa: float((F.max_pool2d(Tensor(xa), 2).data ** 2).sum()),
              [x], rtol=1e-3)

    def test_avg_pool(self, rng):
        x = rng.standard_normal((2, 2, 4, 4))
        check(lambda xt: (F.avg_pool2d(xt, 2) ** 2).sum(),
              lambda xa: float((F.avg_pool2d(Tensor(xa), 2).data ** 2).sum()),
              [x], rtol=1e-3)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        check(lambda xt: (F.global_avg_pool2d(xt) ** 2).sum(),
              lambda xa: ((xa.mean(axis=(2, 3))) ** 2).sum(), [x])


class TestBatchNormGrad:
    def test_train_mode(self, rng):
        x = rng.standard_normal((8, 3, 4, 4))
        w = rng.uniform(0.5, 1.5, 3)
        b = rng.standard_normal(3)
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)

        def tensor_fn(xt, wt, bt):
            return (F.batch_norm(xt, wt, bt, mean, var, 1e-5, (0, 2, 3),
                                 training=True) ** 2).sum()

        def numpy_fn(xa, wa, ba):
            m = xa.mean(axis=(0, 2, 3), keepdims=True)
            v = xa.var(axis=(0, 2, 3), keepdims=True)
            xhat = (xa - m) / np.sqrt(v + 1e-5)
            out = xhat * wa.reshape(1, 3, 1, 1) + ba.reshape(1, 3, 1, 1)
            return float((out ** 2).sum())

        check(tensor_fn, numpy_fn, [x, w, b], rtol=1e-3, atol=1e-5)

    def test_eval_mode(self, rng):
        x = rng.standard_normal((4, 3, 2, 2))
        w = rng.uniform(0.5, 1.5, 3)
        b = rng.standard_normal(3)
        mean = rng.standard_normal((1, 3, 1, 1))
        var = rng.uniform(0.5, 2.0, (1, 3, 1, 1))

        def tensor_fn(xt, wt, bt):
            return (F.batch_norm(xt, wt, bt, mean, var, 1e-5, (0, 2, 3),
                                 training=False) ** 2).sum()

        def numpy_fn(xa, wa, ba):
            xhat = (xa - mean) / np.sqrt(var + 1e-5)
            out = xhat * wa.reshape(1, 3, 1, 1) + ba.reshape(1, 3, 1, 1)
            return float((out ** 2).sum())

        check(tensor_fn, numpy_fn, [x, w, b], rtol=1e-4)


class TestShakeShakeGrad:
    def test_eval_grads_are_half(self, rng):
        a = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = F.shake_shake(a, b, training=False)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, 0.5 * np.ones((4, 3)))
        np.testing.assert_allclose(b.grad, 0.5 * np.ones((4, 3)))

    def test_train_backward_uses_beta_not_alpha(self, rng):
        # With a seeded rng, forward mix uses alpha but gradients use an
        # independent beta: grads of a and b must sum to 1 per sample.
        a = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        out = F.shake_shake(a, b, training=True,
                            rng=np.random.default_rng(0))
        out.sum().backward()
        np.testing.assert_allclose(a.grad + b.grad, np.ones((5, 2)),
                                   rtol=1e-6)
        # beta is random, not 0.5
        assert not np.allclose(a.grad, 0.5)


class TestRandomizedShapeSweep:
    """Randomized shape sweep via ``repro.testkit.strategies``: the
    sampler is deliberately biased toward batch 1, odd feature dims, and
    non-square kernels.  A failing case reproduces from
    ``(SWEEP_SEED, case index)`` alone.
    """

    SWEEP_SEED = 1729

    def test_linear_random_shapes(self):
        for case in range(8):
            rng = strategies.rng_from(self.SWEEP_SEED, case)
            cfg = strategies.linear_case(rng)
            x = rng.standard_normal((cfg["batch"], cfg["in_features"]))
            w = rng.standard_normal((cfg["in_features"],
                                     cfg["out_features"]))
            b = rng.standard_normal((cfg["out_features"],))
            try:
                check(lambda xt, wt, bt: ((xt @ wt + bt) ** 2).sum(),
                      lambda xa, wa, ba: ((xa @ wa + ba) ** 2).sum(),
                      [x, w, b], rtol=1e-3, atol=1e-6)
            except AssertionError as exc:
                raise AssertionError(
                    f"linear case {case} (seed {self.SWEEP_SEED}) "
                    f"config {cfg}: {exc}") from exc

    def test_conv2d_random_shapes(self):
        seen = set()
        for case in range(12):
            rng = strategies.rng_from(self.SWEEP_SEED, 100 + case)
            cfg = strategies.conv_case(rng)
            kh, kw = cfg["kernel"]
            stride, padding = cfg["stride"], cfg["padding"]
            seen |= {f"stride{stride}", f"padding{padding}",
                     "rectangular" if kh != kw else "square"}
            x = rng.standard_normal((cfg["batch"], cfg["in_channels"],
                                     cfg["height"], cfg["width"]))
            w = rng.standard_normal((cfg["out_channels"],
                                     cfg["in_channels"], kh, kw))
            b = rng.standard_normal((cfg["out_channels"],))
            if self._check_conv_forward(x, w, b, stride, padding, cfg,
                                        case):
                seen.add("non-contiguous")

            def tensor_fn(xt, wt, bt):
                return (F.conv2d(xt, wt, bt, stride=stride,
                                 padding=padding) ** 2).sum()

            def numpy_fn(xa, wa, ba):
                out = F.conv2d(Tensor(xa), Tensor(wa), Tensor(ba),
                               stride=stride, padding=padding).data
                return float((out ** 2).sum())

            try:
                check(tensor_fn, numpy_fn, [x, w, b], rtol=1e-3, atol=1e-5)
            except AssertionError as exc:
                raise AssertionError(
                    f"conv case {case} (seed {self.SWEEP_SEED}) "
                    f"config {cfg}: {exc}") from exc
        assert {"stride2", "padding0", "padding1", "padding2",
                "rectangular", "non-contiguous"} <= seen, seen

    def _check_conv_forward(self, x, w, b, stride, padding, cfg, case):
        """Forward values against a direct loop correlation, in float32
        and float64, on a contiguous input and on the non-contiguous
        NCHW view of an NHWC buffer that a conv emits.  Returns whether
        that view really was non-contiguous (not so for 1-wide shapes)."""
        want = direct_conv2d(x, w, b, stride, padding)
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            xd, wd, bd = (a.astype(dtype) for a in (x, w, b))
            view = np.ascontiguousarray(
                xd.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
            outs = [F.conv2d(Tensor(a), Tensor(wd), Tensor(bd),
                             stride=stride, padding=padding).data
                    for a in (xd, view)]
            label = (f"conv case {case} (seed {self.SWEEP_SEED}) "
                     f"{np.dtype(dtype).name} config {cfg}")
            assert outs[0].dtype == dtype, label
            np.testing.assert_allclose(outs[0], want, rtol=tol, atol=tol,
                                       err_msg=label)
            assert outs[1].tobytes() == outs[0].tobytes(), label
        return not view.flags.c_contiguous

    def test_conv2d_layer_accepts_rectangular_kernels(self, rng):
        layer = Conv2d(2, 3, kernel_size=(1, 3), padding=1, rng=rng)
        assert layer.weight.shape == (3, 2, 1, 3)
        out = layer(Tensor(rng.standard_normal((2, 2, 5, 5))))
        assert out.shape == (2, 3, 7, 5)


class TestAccumulation:
    def test_grad_accumulates_across_backwards(self, rng):
        x = Tensor(rng.standard_normal(4), requires_grad=True)
        (x * 2.0).sum().backward()
        first = x.grad.copy()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_diamond_graph(self, rng):
        # y used twice: gradients must sum along both paths.
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = x * 3.0
        z = (y * y).sum() + y.sum()
        z.backward()
        np.testing.assert_allclose(x.grad, 3 * (2 * 3 * x.data) + 3)
