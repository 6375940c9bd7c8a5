"""Differential harness: compiled executor vs the autograd tape.

Randomized architectures/shapes/dtypes from ``testkit.strategies``
(``TESTKIT_SEED`` selects the sweep seed, ``TESTKIT_EXECUTOR_CASES`` the
case count) are replayed through :func:`repro.nn.compile_expert` and
compared against a plain tape forward of the same module:

* **unfused** programs must be *byte-identical* at several batch sizes
  (the executor's core contract);
* **fused** programs are byte-identical unless conv+bn folding changed
  the accumulation order, in which case they match within tolerance.

A failing case writes a JSON repro artifact (``executor-seed<K>-
case<I>.json``) into ``TESTKIT_REPRO_DIR`` (default ``.testkit-repro``),
pinning ``(seed, case, mode)`` — the generators are deterministic, so
that tuple re-derives the exact model and input.
"""

import json
import os

import numpy as np
import pytest

from repro.core.inference import ENGINES, expert_forward
from repro.nn import (BatchNorm2d, Linear, Module, Tensor, blas, build_model,
                      downsize, mlp_spec, no_grad, shake_shake_spec)
from repro.nn.executor import TraceError, _verify, compile_expert
from repro.testkit import strategies, write_repro_artifact
from repro.testkit.differential import DEFAULT_REPRO_DIR

SWEEP_SEED = int(os.environ.get("TESTKIT_SEED", "0"))
CASES = int(os.environ.get("TESTKIT_EXECUTOR_CASES", "25"))


class ExecutorMismatch(AssertionError):
    """The compiled replay diverged from the tape reference."""


def _tape_logits(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def _case(seed, index):
    """Deterministically re-derive one sweep case (model, example)."""
    rng = strategies.rng_from(seed, index, 17)
    return strategies.executor_case(rng)


def _batches(x):
    """The example batch, a doubled batch, and batch 1."""
    return [x, np.concatenate([x, x], axis=0), np.ascontiguousarray(x[:1])]


def _assert_bytes(mode, got, want):
    if got.dtype != want.dtype:
        raise ExecutorMismatch(f"{mode}: dtype {got.dtype} != {want.dtype}")
    if got.shape != want.shape:
        raise ExecutorMismatch(f"{mode}: shape {got.shape} != {want.shape}")
    if got.tobytes() != want.tobytes():
        diff = float(np.max(np.abs(got.astype(np.float64)
                                   - want.astype(np.float64))))
        raise ExecutorMismatch(f"{mode}: bytes differ from tape "
                               f"(max abs diff {diff:.3e})")


def _assert_close(mode, got, want, rtol=1e-4, atol=1e-6):
    if got.shape != want.shape:
        raise ExecutorMismatch(f"{mode}: shape {got.shape} != {want.shape}")
    if not np.allclose(got, want, rtol=rtol, atol=atol):
        diff = float(np.max(np.abs(got.astype(np.float64)
                                   - want.astype(np.float64))))
        raise ExecutorMismatch(f"{mode}: max abs diff {diff:.3e} exceeds "
                               f"rtol={rtol}/atol={atol}")


def _dump_repro(seed, index, mode, error):
    return write_repro_artifact(
        f"executor-seed{seed}-case{index}.json", {
            "sweep_seed": seed,
            "case_index": index,
            "mode": mode,
            "error": str(error),
            "replay": "python -c 'from tests.nn.test_executor_differential "
                      f"import replay; replay({seed}, {index}, {mode!r})'",
        }, env_var="TESTKIT_REPRO_DIR", default_dir=DEFAULT_REPRO_DIR)


def replay(seed, index, mode):
    """Re-run the exact case recorded in a repro artifact."""
    model, x = _case(seed, index)
    _CHECKS[mode](model, x)


def _check_unfused(model, x):
    compiled = compile_expert(model, x, fuse=False, verify=False)
    for batch in _batches(x):
        _assert_bytes("unfused", compiled.run(batch),
                      _tape_logits(model, batch))


def _check_fused(model, x):
    compiled = compile_expert(model, x, fuse=True, verify=False)
    folds_bn = any(isinstance(m, BatchNorm2d) for m in model.modules())
    for batch in _batches(x):
        got, want = compiled.run(batch), _tape_logits(model, batch)
        if folds_bn:
            _assert_close("fused", got, want)
        else:
            # linear+relu fusion keeps the tape's exact expressions.
            _assert_bytes("fused", got, want)


_CHECKS = {"unfused": _check_unfused, "fused": _check_fused}


def _sweep(mode):
    check = _CHECKS[mode]
    for index in range(CASES):
        model, x = _case(SWEEP_SEED, index)
        try:
            check(model, x)
        except AssertionError as exc:
            path = _dump_repro(SWEEP_SEED, index, mode, exc)
            raise ExecutorMismatch(
                f"case {index} of executor sweep seed {SWEEP_SEED} "
                f"[{mode}]: {exc} (repro artifact: {path})") from exc


class TestDifferentialSweeps:
    def test_unfused_replay_is_byte_identical(self):
        _sweep("unfused")

    def test_fused_replay_matches_tape(self):
        _sweep("fused")

    def test_cases_are_reproducible(self):
        model_a, x_a = _case(SWEEP_SEED, 3)
        model_b, x_b = _case(SWEEP_SEED, 3)
        assert x_a.tobytes() == x_b.tobytes()
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            assert pa.data.tobytes() == pb.data.tobytes()


class TestBatchGeneralization:
    def test_one_compile_serves_many_batch_sizes(self):
        rng = strategies.rng_from(SWEEP_SEED, 0, 23)
        model, x = strategies.executor_case(rng)
        compiled = compile_expert(model, x, verify=False)
        for n in (1, 2, 3, 5, 7):
            batch = np.concatenate([x] * n, axis=0)[:n]
            batch = np.ascontiguousarray(batch)
            got = compiled.run(batch)
            want = _tape_logits(model, batch)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-4, atol=1e-6)

    def test_signature_mismatch_is_rejected(self):
        rng = strategies.rng_from(SWEEP_SEED, 1, 29)
        model, x = strategies.executor_case(rng)
        compiled = compile_expert(model, x, verify=False)
        with pytest.raises(TraceError):
            compiled.run(np.zeros((2,) + tuple(d + 1 for d in x.shape[1:]),
                                  dtype=x.dtype))
        other = np.float32 if x.dtype == np.float64 else np.float64
        with pytest.raises(TraceError):
            compiled.run(x.astype(other))


class TestBlasThreadCount:
    """Serving runs under a one-BLAS-thread cap while answers computed
    before deploy (oracles, ``TeamInference`` references) run at the
    library default: both must produce the same bytes.  Shapes are the
    benchmark's: its 4-expert MLP at batch 1 and 64, its Shake-Shake-8
    at batch 1."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("family,shape", [
        ("mlp", (1, 784)), ("mlp", (64, 784)), ("cnn", (1, 3, 32, 32))])
    def test_expert_forward_is_byte_identical_at_one_thread(
            self, family, shape, engine):
        reference = (mlp_spec(4, width=64) if family == "mlp"
                     else shake_shake_spec(8))
        model = build_model(downsize(reference, 4),
                            np.random.default_rng((7, 0)))
        x = np.random.default_rng(0).standard_normal(shape)
        default = expert_forward(model, x, engine=engine)
        blas.acquire()
        try:
            assert blas.get_num_threads() in (None, 1)
            capped = expert_forward(model, x, engine=engine)
        finally:
            blas.release()
        _assert_bytes("probs", capped.probs, default.probs)
        _assert_bytes("entropy", capped.entropy, default.entropy)


class TestVerifyTolerance:
    """``compile_expert``'s self-check bounds a folded program's rounding
    by the compute dtype's eps times the largest logit, not per element:
    folding conv+bn moves every logit by a few ulps of the largest one."""

    @staticmethod
    def _expert_and_input(dtype=np.float32):
        """A 4-way Shake-Shake-8 expert and one CIFAR-shaped input."""
        expert = build_model(downsize(shake_shake_spec(8), 4),
                             np.random.default_rng((7, 1)))
        if dtype != np.float32:
            expert.load_state_dict({name: value.astype(dtype)
                                    for name, value
                                    in expert.state_dict().items()})
        x = np.random.default_rng(403).standard_normal((64, 1, 3, 32, 32))
        return expert, x[0].astype(dtype)

    def test_float32_rounding_near_a_zero_logit_is_accepted(self):
        # Folding moves one near-zero logit of this expert on this input
        # by 1.07e-6: 2.3 float32 eps of the largest logit (3.86), but
        # past the fixed atol of 1e-6 the self-check used to apply.
        expert, x = self._expert_and_input()
        compiled = compile_expert(expert, x)
        got, want = compiled.run(x), _tape_logits(expert, x)
        assert np.max(np.abs(got - want)) < (
            16 * np.finfo(np.float32).eps * np.max(np.abs(want)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_real_divergence_is_still_rejected(self, dtype):
        expert, x = self._expert_and_input(dtype)
        compiled = compile_expert(expert, x)
        stem = next(p for name, p in expert.named_parameters()
                    if p.data.ndim == 4)    # the first conv's weight
        stem.data = stem.data * (1 + 1e-3)
        with pytest.raises(TraceError, match="diverges from tape"):
            _verify(compiled, expert, x, exact=False)


class _Stateful(Module):
    """A module whose forward depends on call count — untraceable."""

    def __init__(self):
        super().__init__()
        self.lin = Linear(4, 3, rng=np.random.default_rng(0))
        self.calls = 0

    def forward(self, x):
        self.calls += 1
        return self.lin(x) + float(self.calls)


class TestHarnessIsNotVacuous:
    def test_compile_verify_catches_untraceable_module(self):
        with pytest.raises(TraceError, match="diverges from tape"):
            compile_expert(_Stateful(), np.ones((2, 4)))

    def test_mismatch_writes_repro_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TESTKIT_REPRO_DIR", str(tmp_path))
        monkeypatch.setattr(strategies, "executor_case",
                            lambda rng: (_Stateful(), np.ones((2, 4))))
        with pytest.raises(ExecutorMismatch, match="repro artifact"):
            _sweep("unfused")
        artifacts = list(tmp_path.iterdir())
        assert len(artifacts) == 1
        artifact = json.loads(artifacts[0].read_text())
        assert artifact["mode"] == "unfused"
        assert artifact["sweep_seed"] == SWEEP_SEED

    def test_byte_comparator_flags_divergence(self):
        with pytest.raises(ExecutorMismatch):
            _assert_bytes("forged", np.zeros(3), np.ones(3))
        with pytest.raises(ExecutorMismatch):
            _assert_bytes("forged", np.zeros(3, np.float32),
                          np.zeros(3, np.float64))
