"""Tests for post-training int8 weight quantization."""

import numpy as np
import pytest

from repro.nn import MLP, Tensor, build_model, mlp_spec, no_grad
from repro.nn.quantize import (AlreadyQuantizedError, _should_quantize,
                               dequantize_array, dequantize_state_dict,
                               quantization_error, quantize_array,
                               quantize_model, quantize_state_dict,
                               quantized_size_bytes)
from repro.testkit import strategies


class TestQuantizeArray:
    def test_roundtrip_error_bounded(self, rng):
        w = rng.standard_normal((16, 32)).astype(np.float32)
        q, scales = quantize_array(w)
        restored = dequantize_array(q, scales)
        # Per-channel symmetric int8: error <= scale/2 per element.
        bound = (np.abs(w).max(axis=1) / 127)[:, None] * 0.5 + 1e-7
        assert (np.abs(restored - w) <= bound).all()

    def test_int8_range(self, rng):
        q, _ = quantize_array(rng.standard_normal((4, 8)) * 100)
        assert q.dtype == np.int8
        assert q.min() >= -127 and q.max() <= 127

    def test_zero_channel_safe(self):
        w = np.zeros((3, 4), dtype=np.float32)
        w[0] = 1.0
        q, scales = quantize_array(w)
        restored = dequantize_array(q, scales)
        np.testing.assert_allclose(restored[1:], 0.0)

    def test_conv_kernel_axis(self, rng):
        w = rng.standard_normal((8, 3, 3, 3)).astype(np.float32)
        q, scales = quantize_array(w, axis=0)
        assert scales.shape == (8,)
        restored = dequantize_array(q, scales, axis=0)
        assert np.abs(restored - w).max() < np.abs(w).max() / 100

    def test_scalar(self):
        q, scale = quantize_array(np.array(3.0))
        np.testing.assert_allclose(dequantize_array(q, scale), 3.0,
                                   rtol=0.02)


class TestStateDict:
    @pytest.fixture
    def model(self, rng):
        return MLP(64, 10, depth=2, width=32, rng=rng)

    def test_weights_quantized_biases_kept(self, model):
        qstate = quantize_state_dict(model.state_dict())
        assert any(k.endswith(".q8") for k in qstate)
        # Biases pass through in float.
        float_entries = [k for k in qstate
                         if not k.endswith((".q8", ".scale"))]
        assert any("bias" in k for k in float_entries)

    def test_roundtrip_loads(self, model, rng):
        state = model.state_dict()
        restored = dequantize_state_dict(quantize_state_dict(state))
        model.load_state_dict(restored)  # must not raise

    def test_size_reduction_close_to_4x(self, model):
        state = model.state_dict()
        float_bytes = sum(np.asarray(v, dtype=np.float32).nbytes
                          for v in state.values())
        q_bytes = quantized_size_bytes(quantize_state_dict(state))
        assert q_bytes < 0.35 * float_bytes  # ~4x on weight-dominated nets

    def test_error_metric_small(self, model):
        assert quantization_error(model.state_dict()) < 0.01


class TestQuantizeProperties:
    """Randomized property sweeps over shapes, axes and dtypes."""

    def test_roundtrip_error_bounded_per_axis(self):
        for case in range(40):
            rng = strategies.rng_from(11, case)
            ndim = int(rng.integers(2, 5))
            shape = tuple(int(rng.integers(1, 7)) for _ in range(ndim))
            axis = int(rng.integers(0, ndim))
            w = strategies.array(rng, shape, dtype=np.float32,
                                 scale=float(rng.uniform(0.01, 50.0)))
            q, scales = quantize_array(w, axis=axis)
            restored = dequantize_array(q, scales, axis=axis)
            # Symmetric rounding: error <= scale/2 per element, with the
            # scale of whichever channel the element belongs to.
            view = [1] * ndim
            view[axis] = -1
            bound = np.asarray(scales).reshape(view) * 0.5 + 1e-6
            assert (np.abs(restored - w) <= bound).all(), \
                f"case {case}: shape={shape} axis={axis}"

    def test_size_reduction_close_to_4x_across_models(self):
        for case in range(5):
            rng = strategies.rng_from(13, case)
            model = MLP(int(rng.integers(32, 128)), 10, depth=2,
                        width=int(rng.integers(32, 96)), rng=rng)
            state = model.state_dict()
            float_bytes = sum(np.asarray(v, dtype=np.float32).nbytes
                              for v in state.values())
            q_bytes = quantized_size_bytes(quantize_state_dict(state))
            assert q_bytes < 0.35 * float_bytes

    def test_should_quantize_skip_list(self):
        matrix = np.zeros((4, 4))
        vector = np.zeros(4)
        assert _should_quantize("layer0.weight", matrix)
        assert _should_quantize("blocks.3.conv.weight", np.zeros((2, 2, 3, 3)))
        # Biases, 1-D batch-norm gains, and running-stat buffers stay float.
        assert not _should_quantize("layer0.bias", vector)
        assert not _should_quantize("bn.weight", vector)
        assert not _should_quantize("buffer.running_mean", matrix)
        assert not _should_quantize("buffer.running_var", matrix)

    def test_double_quantize_rejected(self, rng):
        state = MLP(16, 4, depth=1, width=8, rng=rng).state_dict()
        qstate = quantize_state_dict(state)
        with pytest.raises(AlreadyQuantizedError):
            quantize_state_dict(qstate)
        # ...but a dequantized dict is quantizable again (idempotent grid).
        again = quantize_state_dict(dequantize_state_dict(qstate))
        for name, value in qstate.items():
            np.testing.assert_array_equal(again[name], value)

    def test_quantized_archive_roundtrip(self, rng):
        from repro.nn import model_from_bytes, model_to_bytes
        spec = mlp_spec(2, in_shape=(64,), num_classes=10, width=32)
        model = build_model(spec, np.random.default_rng(7))
        float_blob = model_to_bytes(model, spec)
        q_blob = model_to_bytes(model, spec, quantize=True)
        assert len(q_blob) < 0.5 * len(float_blob)
        restored, restored_spec = model_from_bytes(q_blob)
        assert restored_spec == spec
        # The receiver sees exactly the floats quantize_model would leave.
        want = dequantize_state_dict(
            quantize_state_dict(model.state_dict()))
        got = restored.state_dict()
        assert set(got) == set(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])


class TestAccuracyPreservation:
    def test_predictions_nearly_unchanged(self, rng):
        model = build_model(mlp_spec(4, width=32), np.random.default_rng(0))
        x = Tensor(rng.standard_normal((64, 784)).astype(np.float32))
        model.eval()
        with no_grad():
            before = model(x).data.argmax(axis=1)
        quantize_model(model)
        with no_grad():
            after = model(x).data.argmax(axis=1)
        # int8 weights flip at most a tiny fraction of argmax decisions.
        assert (before == after).mean() > 0.95

    def test_trained_model_accuracy_preserved(self):
        from repro.data import synthetic_mnist, train_test_split
        from repro.experiments.workloads import (model_accuracy,
                                                 train_single_model)
        ds = synthetic_mnist(600, seed=0)
        train, test = train_test_split(ds, 0.2, np.random.default_rng(0))
        model = train_single_model(mlp_spec(2, width=32), train, epochs=6,
                                   seed=0)
        before = model_accuracy(model, test)
        quantize_model(model)
        after = model_accuracy(model, test)
        assert after > before - 0.05
