"""Compiled inference-only executor: trace once, replay a flat op list.

Serving never calls ``backward``, yet every tape forward still pays graph
bookkeeping per op: a ``Function`` instance, ``Tensor`` wrappers,
``save_for_backward`` references and a fresh output allocation.  For the
small experts TeamNet deploys to edge devices that overhead rivals the
arithmetic itself.  This module removes it:

* **Trace** — run the module once on an example input with
  ``Function.apply`` patched to record each op instead of building a
  graph.  Every intermediate becomes a *slot*; parameters and anything
  not derived from the input become *constants*.  Ops whose inputs are
  all constants (e.g. the per-call ``weight.transpose()`` inside
  ``F.linear``) are folded at trace time.
* **Lower** — the flat op list is pattern-matched into fused kernels:
  ``matmul+add[+relu]`` becomes one Linear node, ``conv+bn_eval[+relu]``
  folds the frozen batch-norm statistics into the conv weights, a
  standalone eval batch-norm becomes a precomputed affine.  Everything
  else replays through a generic fallback that calls the original
  ``Function.forward`` on raw arrays (no Tensor, no graph).
* **Replay** — kernels write into per-batch-size buffers reused across
  calls, so steady-state serving allocates almost nothing.  Traces are
  batch-generic: reshape ops that carry the batch dimension are
  re-derived per call, and compilation verifies the program against the
  tape at a second batch size.

Numerical contract (asserted by ``tests/nn/test_executor_differential``):
the unfused path is *byte-identical* to the tape; linear+relu fusion is
also byte-identical (same numpy expressions, just into reused buffers);
conv+bn folding changes the accumulation order and is equivalent only
within a small tolerance.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

from .autograd import Function, no_grad
from .functional import BatchNormEval, Conv2d as _ConvFn, _im2col
from .tensor import Add, MatMul, Relu, Reshape, Tensor

__all__ = ["CompiledExpert", "compile_expert", "TraceError"]

_SLOT = 0
_CONST = 1

# Patching ``Function.apply`` is process-global; one trace at a time.
# Other threads running tape forwards concurrently are routed through the
# original apply by a thread-identity check inside the recorder.
_TRACE_GUARD = threading.Lock()


class TraceError(RuntimeError):
    """Tracing or compiled-vs-tape verification failed."""


class _TraceOp:
    """One recorded ``Function`` application.

    ``refs`` is one ``(kind, value)`` per positional argument: kind
    ``_SLOT`` with a slot index for tensors derived from the input, kind
    ``_CONST`` with the raw value (array, scalar, None, ...) otherwise.
    """

    __slots__ = ("cls", "refs", "kwargs", "out_slot")

    def __init__(self, cls, refs, kwargs, out_slot):
        self.cls = cls
        self.refs = refs
        self.kwargs = kwargs
        self.out_slot = out_slot


def _trace(module, example: np.ndarray):
    """Run ``module`` once, recording the op list. Returns
    ``(ops, slot_shapes, slot_dtypes, out_slot)``."""
    ops: list[_TraceOp] = []
    slot_shapes: list[tuple[int, ...]] = [example.shape]
    slot_dtypes: list[np.dtype] = [example.dtype]
    slot_of: dict[int, int] = {}
    const_of: dict[int, np.ndarray] = {}
    keepalive: list[Tensor] = []  # pins tensor ids for the dict keys above

    root = Tensor(example)
    slot_of[id(root)] = 0
    keepalive.append(root)

    owner = threading.get_ident()

    def resolve(arg):
        if isinstance(arg, Tensor):
            slot = slot_of.get(id(arg))
            if slot is not None:
                return (_SLOT, slot)
            folded = const_of.get(id(arg))
            return (_CONST, folded if folded is not None else arg.data)
        return (_CONST, arg)

    with _TRACE_GUARD:
        original = Function.__dict__["apply"]
        original_func = original.__func__

        def recording_apply(cls, *args, **kwargs):
            if threading.get_ident() != owner:
                return original_func(cls, *args, **kwargs)
            refs = [resolve(a) for a in args]
            ctx = cls()
            raw = [a.data if isinstance(a, Tensor) else a for a in args]
            out_data = ctx.forward(*raw, **kwargs)
            out = Tensor(out_data)
            keepalive.append(out)
            if any(kind == _SLOT for kind, _ in refs):
                slot = len(slot_shapes)
                slot_shapes.append(np.shape(out_data))
                slot_dtypes.append(np.asarray(out_data).dtype)
                ops.append(_TraceOp(cls, refs, dict(kwargs), slot))
                slot_of[id(out)] = slot
            else:
                # Constant folding: inputs are all parameters/constants, so
                # the result never changes — evaluate once at trace time.
                const_of[id(out)] = out_data
            return out

        was_training = getattr(module, "training", False)
        try:
            Function.apply = classmethod(recording_apply)
            module.eval()
            with no_grad():
                out = module(root)
        finally:
            Function.apply = original
            if was_training:
                module.train()

    if not isinstance(out, Tensor) or id(out) not in slot_of:
        raise TraceError("module output does not depend on the input")
    return ops, slot_shapes, slot_dtypes, slot_of[id(out)]


# --------------------------------------------------------------------------
# Replay nodes
# --------------------------------------------------------------------------
class _BufferPool:
    """Per-batch-size activation buffers, reused across calls.

    Keyed by (batch, node); keeps at most ``cap`` batch sizes so a
    workload cycling through many batch sizes cannot grow memory without
    bound (old sizes are evicted in insertion order).
    """

    def __init__(self, cap: int = 8):
        self.cap = cap
        self._per_batch: dict[int, dict[int, np.ndarray]] = {}

    def get(self, n: int, key: int, shape: tuple[int, ...],
            dtype: np.dtype) -> np.ndarray:
        bufs = self._per_batch.get(n)
        if bufs is None:
            while len(self._per_batch) >= self.cap:
                self._per_batch.pop(next(iter(self._per_batch)))
            bufs = self._per_batch[n] = {}
        buf = bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = bufs[key] = np.empty(shape, dtype=dtype)
        return buf


class _Node:
    __slots__ = ("name", "key", "out_slot", "out_trailing", "out_dtype")
    buffered = False

    def run(self, env, pool, n):  # pragma: no cover - abstract
        raise NotImplementedError


class _LinearNode(_Node):
    """``x @ W.T [+ b] [relu]`` — fused, buffered."""

    __slots__ = ("in_slot", "wt", "bias", "relu")
    buffered = True

    def __init__(self, key, in_slot, out_slot, wt, bias, relu, dtype):
        self.key = key
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.wt = wt                      # (in, out) — already transposed
        self.bias = bias
        self.relu = relu
        self.out_dtype = dtype
        self.name = (("Linear" if bias is not None else "MatMul")
                     + ("ReLU" if relu else ""))

    def run(self, env, pool, n):
        x = env[self.in_slot]
        out = pool.get(n, self.key, (x.shape[0], self.out_trailing[0]),
                       self.out_dtype)
        y = np.matmul(x, self.wt, out=out)
        if self.bias is not None:
            np.add(y, self.bias, out=y)
        if self.relu:
            np.multiply(y, y > 0, out=y)
        env[self.out_slot] = y


class _ConvNode(_Node):
    """im2col conv with optional folded eval-BN and relu."""

    __slots__ = ("in_slot", "w", "w_mat", "bias", "stride", "padding",
                 "relu", "folded_bn")
    buffered = True

    def __init__(self, key, in_slot, out_slot, w, bias, stride, padding,
                 relu, folded_bn, dtype):
        self.key = key
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.w = w                        # (o, c, kh, kw)
        self.w_mat = w.reshape(w.shape[0], -1)
        self.bias = bias
        self.stride = stride
        self.padding = padding
        self.relu = relu
        self.folded_bn = folded_bn
        self.out_dtype = dtype
        self.name = ("Conv2d" + ("BN" if folded_bn else "")
                     + ("ReLU" if relu else ""))

    def run(self, env, pool, n):
        x = env[self.in_slot]
        o = self.out_trailing[0]
        nb = x.shape[0]
        rows = nb * self.out_trailing[1] * self.out_trailing[2]
        out = pool.get(n, self.key, (rows, o), self.out_dtype)
        cols, out_h, out_w = _im2col(x, self.w.shape[2], self.w.shape[3],
                                     self.stride, self.padding)
        y = np.matmul(cols, self.w_mat.T, out=out)
        if self.bias is not None:
            np.add(y, self.bias, out=y)
        if self.relu:
            np.multiply(y, y > 0, out=y)
        env[self.out_slot] = y.reshape(nb, out_h, out_w, o
                                       ).transpose(0, 3, 1, 2)


class _AffineNode(_Node):
    """Standalone eval batch-norm: ``x * scale + shift`` with both
    factors precomputed exactly as ``BatchNormEval.forward`` would —
    byte-identical to the tape."""

    __slots__ = ("in_slot", "scale", "shift")
    buffered = True
    name = "BatchNormEval"

    def __init__(self, key, in_slot, out_slot, scale, shift, dtype):
        self.key = key
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.scale = scale
        self.shift = shift
        self.out_dtype = dtype

    def run(self, env, pool, n):
        x = env[self.in_slot]
        out = pool.get(n, self.key, (x.shape[0],) + self.out_trailing,
                       self.out_dtype)
        np.multiply(x, self.scale, out=out)
        np.add(out, self.shift, out=out)
        env[self.out_slot] = out


class _EltwiseNode(_Node):
    """Buffered elementwise binary op (Add today) over slots/constants."""

    __slots__ = ("ufunc", "refs", "lead_slot")
    buffered = True

    def __init__(self, key, name, ufunc, refs, lead_slot, out_slot, dtype):
        self.key = key
        self.name = name
        self.ufunc = ufunc
        self.refs = refs
        self.lead_slot = lead_slot
        self.out_slot = out_slot
        self.out_dtype = dtype

    def run(self, env, pool, n):
        a = env[self.refs[0][1]] if self.refs[0][0] == _SLOT else self.refs[0][1]
        b = env[self.refs[1][1]] if self.refs[1][0] == _SLOT else self.refs[1][1]
        lead = env[self.lead_slot].shape[0]
        out = pool.get(n, self.key, (lead,) + self.out_trailing,
                       self.out_dtype)
        self.ufunc(a, b, out=out)
        env[self.out_slot] = out


class _ReluNode(_Node):
    __slots__ = ("in_slot",)
    buffered = True
    name = "Relu"

    def __init__(self, key, in_slot, out_slot, dtype):
        self.key = key
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.out_dtype = dtype

    def run(self, env, pool, n):
        x = env[self.in_slot]
        out = pool.get(n, self.key, (x.shape[0],) + self.out_trailing,
                       self.out_dtype)
        # Same expression as Relu.forward (a * (a > 0)): np.maximum would
        # differ on -0.0 and break byte-identity with the tape.
        np.multiply(x, x > 0, out=out)
        env[self.out_slot] = out


class _ReshapeNode(_Node):
    """Reshape that re-derives the batch dimension per call (views only)."""

    __slots__ = ("in_slot", "dynamic", "static_shape")
    name = "Reshape"

    def __init__(self, key, in_slot, out_slot, dynamic, static_shape):
        self.key = key
        self.in_slot = in_slot
        self.out_slot = out_slot
        self.dynamic = dynamic
        self.static_shape = static_shape

    def run(self, env, pool, n):
        x = env[self.in_slot]
        if self.dynamic:
            env[self.out_slot] = x.reshape((x.shape[0],) + self.out_trailing)
        else:
            env[self.out_slot] = x.reshape(self.static_shape)


class _FallbackNode(_Node):
    """Replay any op through its original ``forward`` on raw arrays.

    Still skips the tape (no Tensor wrapper, no graph node, no
    requires-grad bookkeeping); one ctx instance is reused across calls.
    Byte-identical to the tape by construction.
    """

    __slots__ = ("ctx", "refs", "kwargs")

    def __init__(self, key, op: _TraceOp):
        self.key = key
        self.name = op.cls.__name__
        self.ctx = op.cls()
        self.refs = op.refs
        self.kwargs = op.kwargs
        self.out_slot = op.out_slot

    def run(self, env, pool, n):
        args = [env[v] if k == _SLOT else v for k, v in self.refs]
        env[self.out_slot] = self.ctx.forward(*args, **self.kwargs)


# --------------------------------------------------------------------------
# Lowering
# --------------------------------------------------------------------------
def _is_const_array(ref, ndim=None):
    kind, val = ref
    return (kind == _CONST and isinstance(val, np.ndarray)
            and (ndim is None or val.ndim == ndim))


def _fold_bn(w, bias, op: _TraceOp):
    """Fold frozen BatchNormEval statistics into conv weights/bias."""
    gamma = op.refs[1][1]
    beta = op.refs[2][1]
    mean = np.asarray(op.kwargs["mean"])
    var = np.asarray(op.kwargs["var"])
    eps = op.kwargs["eps"]
    inv_std = 1.0 / np.sqrt(var + eps)
    scale = gamma.reshape(mean.shape) * inv_std
    shift = beta.reshape(mean.shape) - mean * scale
    s_flat = scale.reshape(-1)
    w2 = (w * s_flat[:, None, None, None]).astype(w.dtype)
    b2 = shift.reshape(-1)
    if bias is not None:
        b2 = b2 + bias * s_flat
    return w2, b2.astype(w.dtype)


def _lower(ops, shapes, dtypes, batch, out_slot, fuse):
    """Pattern-match the trace into replay nodes. Returns
    ``(nodes, exact)`` — ``exact`` is False once any transform changes
    the accumulation order (bn folding)."""
    consumers: dict[int, list[int]] = defaultdict(list)
    for idx, op in enumerate(ops):
        for kind, val in op.refs:
            if kind == _SLOT:
                consumers[val].append(idx)

    def sole_next_consumer(slot, idx):
        """The op at idx+1, iff it is the only consumer of ``slot``."""
        if slot == out_slot or idx + 1 >= len(ops):
            return None
        if consumers.get(slot) != [idx + 1]:
            return None
        return ops[idx + 1]

    def batch_leading(slot):
        shape = shapes[slot]
        return len(shape) >= 1 and shape[0] == batch

    nodes: list[_Node] = []
    exact = True
    i = 0
    while i < len(ops):
        op = ops[i]
        key = len(nodes)

        if (op.cls is MatMul and len(op.refs) == 2
                and op.refs[0][0] == _SLOT and _is_const_array(op.refs[1], 2)
                and len(shapes[op.refs[0][1]]) == 2
                and batch_leading(op.refs[0][1]) and batch_leading(op.out_slot)):
            in_slot = op.refs[0][1]
            wt = op.refs[1][1]
            bias = None
            relu = False
            cur = op.out_slot
            j = i
            if fuse:
                nxt = sole_next_consumer(cur, j)
                if (nxt is not None and nxt.cls is Add
                        and nxt.refs[0] == (_SLOT, cur)
                        and _is_const_array(nxt.refs[1], 1)
                        and nxt.refs[1][1].shape[0] == wt.shape[1]):
                    bias = nxt.refs[1][1]
                    cur = nxt.out_slot
                    j += 1
                nxt = sole_next_consumer(cur, j)
                if (nxt is not None and nxt.cls is Relu
                        and nxt.refs[0] == (_SLOT, cur)):
                    relu = True
                    cur = nxt.out_slot
                    j += 1
            node = _LinearNode(key, in_slot, cur, wt, bias, relu, dtypes[cur])
            node.out_trailing = shapes[cur][1:]
            nodes.append(node)
            i = j + 1
            continue

        if (op.cls is _ConvFn and len(op.refs) == 3
                and op.refs[0][0] == _SLOT and _is_const_array(op.refs[1], 4)
                and op.refs[2][0] == _CONST
                and batch_leading(op.refs[0][1]) and batch_leading(op.out_slot)):
            in_slot = op.refs[0][1]
            w = op.refs[1][1]
            bias = op.refs[2][1]
            stride = op.kwargs.get("stride", 1)
            padding = op.kwargs.get("padding", 0)
            relu = False
            folded = False
            cur = op.out_slot
            j = i
            if fuse:
                nxt = sole_next_consumer(cur, j)
                if (nxt is not None and nxt.cls is BatchNormEval
                        and nxt.refs[0] == (_SLOT, cur)
                        and _is_const_array(nxt.refs[1])
                        and _is_const_array(nxt.refs[2])
                        and np.asarray(nxt.kwargs["mean"]).size == w.shape[0]):
                    w, bias = _fold_bn(w, bias, nxt)
                    folded = True
                    exact = False
                    cur = nxt.out_slot
                    j += 1
                nxt = sole_next_consumer(cur, j)
                if (nxt is not None and nxt.cls is Relu
                        and nxt.refs[0] == (_SLOT, cur)):
                    relu = True
                    cur = nxt.out_slot
                    j += 1
            node = _ConvNode(key, in_slot, cur, np.ascontiguousarray(w),
                             bias, stride, padding, relu, folded, dtypes[cur])
            node.out_trailing = shapes[cur][1:]
            nodes.append(node)
            i = j + 1
            continue

        if (op.cls is BatchNormEval and op.refs[0][0] == _SLOT
                and _is_const_array(op.refs[1]) and _is_const_array(op.refs[2])
                and batch_leading(op.out_slot)):
            mean = np.asarray(op.kwargs["mean"])
            inv_std = 1.0 / np.sqrt(np.asarray(op.kwargs["var"])
                                    + op.kwargs["eps"])
            scale = op.refs[1][1].reshape(mean.shape) * inv_std
            shift = op.refs[2][1].reshape(mean.shape) - mean * scale
            node = _AffineNode(key, op.refs[0][1], op.out_slot, scale, shift,
                               dtypes[op.out_slot])
            node.out_trailing = shapes[op.out_slot][1:]
            nodes.append(node)
            i += 1
            continue

        if (op.cls is Add and len(op.refs) == 2
                and batch_leading(op.out_slot)):
            lead = next((v for k, v in op.refs
                         if k == _SLOT and batch_leading(v)
                         and len(shapes[v]) == len(shapes[op.out_slot])), None)
            if lead is not None:
                node = _EltwiseNode(key, "Add", np.add, op.refs, lead,
                                    op.out_slot, dtypes[op.out_slot])
                node.out_trailing = shapes[op.out_slot][1:]
                nodes.append(node)
                i += 1
                continue

        if (op.cls is Relu and op.refs[0][0] == _SLOT
                and batch_leading(op.refs[0][1])
                and batch_leading(op.out_slot)):
            node = _ReluNode(key, op.refs[0][1], op.out_slot,
                             dtypes[op.out_slot])
            node.out_trailing = shapes[op.out_slot][1:]
            nodes.append(node)
            i += 1
            continue

        if op.cls is Reshape and op.refs[0][0] == _SLOT:
            in_slot = op.refs[0][1]
            dynamic = batch_leading(in_slot) and batch_leading(op.out_slot)
            node = _ReshapeNode(key, in_slot, op.out_slot, dynamic,
                                shapes[op.out_slot])
            node.out_trailing = shapes[op.out_slot][1:]
            nodes.append(node)
            i += 1
            continue

        node = _FallbackNode(key, op)
        node.out_trailing = shapes[op.out_slot][1:]
        node.out_dtype = dtypes[op.out_slot]
        nodes.append(node)
        i += 1

    return nodes, exact


# --------------------------------------------------------------------------
# Public API
# --------------------------------------------------------------------------
class CompiledExpert:
    """A traced, lowered module ready for repeated inference calls.

    ``run(x)`` accepts any batch size with the traced feature shape and
    dtype.  Calls are serialized by an internal lock (buffers are shared
    state); concurrent servers get correctness, not parallelism, from one
    instance.
    """

    def __init__(self, nodes, num_slots, example, out_slot):
        self._nodes = nodes
        self._env: list = [None] * num_slots
        self._pool = _BufferPool()
        self._lock = threading.Lock()
        self._in_trailing = example.shape[1:]
        self._in_dtype = example.dtype
        self.out_slot = out_slot
        buffered = {n.out_slot for n in nodes if n.buffered}
        # Conv/reshape nodes publish views of pooled buffers; hand callers
        # a copy of the final activation so the next run can't clobber it.
        self._copy_out = out_slot in buffered or any(
            isinstance(n, (_ConvNode, _ReshapeNode)) and n.out_slot == out_slot
            for n in nodes)

    @property
    def op_names(self) -> list[str]:
        return [n.name for n in self._nodes]

    def run(self, x: np.ndarray) -> np.ndarray:
        """Forward ``x`` through the compiled program, returning logits."""
        x = np.asarray(x)
        if x.shape[1:] != self._in_trailing or x.dtype != self._in_dtype:
            raise TraceError(
                f"input signature {x.shape}/{x.dtype} does not match the "
                f"trace (batch, *{self._in_trailing})/{self._in_dtype}; "
                "compile a new executor for this signature")
        from .profiler import active_profiler

        with self._lock:
            env = self._env
            env[0] = x
            n = x.shape[0]
            prof = active_profiler()
            if prof is None:
                for node in self._nodes:
                    node.run(env, self._pool, n)
            else:
                for node in self._nodes:
                    start = time.perf_counter()
                    node.run(env, self._pool, n)
                    prof.record_forward(node.name,
                                        time.perf_counter() - start)
            out = env[self.out_slot]
            return out.copy() if self._copy_out else out

    __call__ = run


def _tape_logits(module, x: np.ndarray) -> np.ndarray:
    was_training = getattr(module, "training", False)
    module.eval()
    try:
        with no_grad():
            out = module(Tensor(x))
    finally:
        if was_training:
            module.train()
    return out.data


def _verify(compiled: CompiledExpert, module, example, exact):
    """Check the compiled program against the tape on the example batch
    and on a different batch size (catches batch-specialization bugs)."""
    batches = [example]
    if example.shape[0] >= 1:
        batches.append(np.concatenate([example, example], axis=0))
    for x in batches:
        want = _tape_logits(module, x)
        got = compiled.run(x)
        if exact:
            ok = (got.shape == want.shape and got.dtype == want.dtype
                  and got.tobytes() == want.tobytes())
        else:
            # Folding conv+bn moves every logit by a few ulps of the
            # largest one, so allow 16 compute-dtype eps of that (worst
            # seen over 80 float32 Shake-Shake-8 compiles: 3.3).
            atol = (16 * np.finfo(want.dtype).eps
                    * float(np.max(np.abs(want), initial=0.0)))
            ok = got.shape == want.shape and np.allclose(
                got, want, rtol=1e-4, atol=atol)
        if not ok:
            diff = float(np.max(np.abs(np.asarray(got, dtype=np.float64)
                                       - np.asarray(want, dtype=np.float64))))
            raise TraceError(
                f"compiled program diverges from tape at batch {x.shape[0]} "
                f"(max abs diff {diff:.3e}, exact={exact}); "
                "this module is not safely traceable")


def compile_expert(module, example, *, fuse: bool = True,
                   verify: bool = True) -> CompiledExpert:
    """Trace ``module`` on ``example`` and return a :class:`CompiledExpert`.

    ``example`` fixes the feature shape and dtype (batch size stays
    free).  ``fuse`` enables linear+relu fusion and conv+bn folding.
    ``verify`` replays the example (and a doubled batch) against the tape
    right after compilation — byte-exact when no transform changed the
    accumulation order, else within tolerance.
    """
    example = np.ascontiguousarray(example)
    if example.ndim < 1 or example.shape[0] < 1:
        raise TraceError("example must have a non-empty batch dimension")
    ops, shapes, dtypes, out_slot = _trace(module, example)
    nodes, exact = _lower(ops, shapes, dtypes, example.shape[0], out_slot,
                          fuse)
    compiled = CompiledExpert(nodes, len(shapes), example, out_slot)
    if verify:
        _verify(compiled, module, example, exact)
    return compiled
