"""Reverse-mode differentiable tensors.

A small define-by-run engine on top of numpy: every operation records its
parents and a backward closure, and ``backward`` walks the recorded graph in
exact reverse topological order. Only the primitives the forecasting model
needs are provided; training runs in 64-bit precision so finite-difference
checks have headroom, while 32-bit arrays are passed through untouched for
inference.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np


class NumericsError(Exception):
    """Base class for tensor-engine errors."""


class ShapeError(NumericsError):
    """Operand shapes are incompatible; the message names the offending op."""


class UsageError(NumericsError):
    """The engine was driven in an unsupported order (e.g. backward first)."""


_record_graph = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure-numpy forward speed)."""
    global _record_graph
    prev = _record_graph
    _record_graph = False
    try:
        yield
    finally:
        _record_graph = prev


class Tensor:
    """An n-d float array plus an optional gradient slot and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False, op="leaf", _parents=(), _bwd=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = op
        self._parents = _parents
        self._bwd = _bwd

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def __getitem__(self, key):
        return narrow(self, key)


class Parameter(Tensor):
    """A trainable leaf owned by a ``ParamStore``: its ``data`` and ``grad``
    are views into the store's flat value and gradient vectors, so
    ``backward`` adds into its ``grad`` in place."""

    __slots__ = ()


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x):
    """A leaf tensor that never takes gradients."""
    return Tensor(x, requires_grad=False)


def _recording(parents):
    """Whether a node over ``parents`` would be recorded: outside ``no_grad``
    and with a parent that takes gradients."""
    return _record_graph and any(p.requires_grad for p in parents)


def _node(data, parents, bwd, op):
    if _recording(parents):
        return Tensor(data, True, op, tuple(parents), bwd)
    return Tensor(data, False, op)


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- primitives ---------------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: {a.shape} vs {b.shape}: {exc}") from None

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), bwd, "add")


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError as exc:
        raise ShapeError(f"sub: {a.shape} vs {b.shape}: {exc}") from None

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(out, (a, b), bwd, "sub")


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: {a.shape} vs {b.shape}: {exc}") from None

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), bwd, "mul")


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), bwd, "matmul")


def reshape(a, shape):
    a = as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: {a.shape} -> {shape}: {exc}") from None
    src = a.shape

    def bwd(g):
        return (g.reshape(src),)

    return _node(out, (a,), bwd, "reshape")


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {[t.shape for t in tensors]}: {exc}") from None
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _node(out, tuple(tensors), bwd, "concat")


def narrow(a, key):
    """Slicing; the gradient scatters back into zeros (repeated indices add)."""
    a = as_tensor(a)
    out = a.data[key]
    src_shape = a.shape
    fancy = any(isinstance(k, np.ndarray) for k in (key if isinstance(key, tuple) else (key,)))

    def bwd(g):
        full = np.zeros(src_shape, dtype=g.dtype)
        if fancy:
            np.add.at(full, key, g)
        else:
            full[key] = g
        return (full,)

    return _node(out, (a,), bwd, "slice")


def _relu_data(x):
    """``np.maximum(x, 0.0)``: the forward of ``relu`` and of the relu inside
    a fused node, in one place."""
    return np.maximum(x, 0.0)


def relu(a):
    a = as_tensor(a)
    out = _relu_data(a.data)

    def bwd(g):
        return (g * (a.data > 0),)

    return _node(out, (a,), bwd, "relu")


def scale(a, c):
    a = as_tensor(a)
    c = float(c)
    out = a.data * c

    def bwd(g):
        return (g * c,)

    return _node(out, (a,), bwd, "scale")


def reduce_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    src_shape = a.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, src_shape).copy(),)

    return _node(out, (a,), bwd, "sum")


def reduce_mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    src_shape = a.shape
    count = a.size if axis is None else np.prod(
        [src_shape[i] for i in np.atleast_1d(axis)]
    )

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, src_shape).copy(),)

    return _node(out, (a,), bwd, "mean")


def layer_norm(a, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance (pre-affine).

    The variance is floored by ``eps`` inside the square root, so a constant
    row maps to exact zeros instead of dividing by zero.
    """
    a = as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = centered * inv
    n = a.shape[-1]

    def bwd(g):
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * out).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - out * gy),)

    return _node(out, (a,), bwd, "layer_norm")


def _gemm(x, w):
    """``x @ w`` for a 2-D ``x`` through the BLAS matrix product, also for a
    single row. Each row then equals the same row of a stacked (..., L, d)
    product bit for bit; numpy would hand a one-row product to gemv, which
    sums in another order."""
    if len(x) > 1:
        return np.matmul(x, w)
    return np.matmul(np.repeat(x, 2, axis=0), w)[:1]


# -- fused nodes ---------------------------------------------------------
# Each repeats, in one node, the numpy arithmetic of the primitive chain it
# replaces, so its forward is bit-identical to that chain; one hand-written
# backward replaces the chain's walk.


def linear(x, w, b):
    """``x @ w + b`` for x (..., d_in), w (d_in, d_out) and b broadcast to
    the output. The weight gradient is one 2-D matmul over all rows of x."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 2 or x.shape[-1:] != w.shape[:1]:
        raise ShapeError(f"linear: {x.shape} @ {w.shape}")
    out = np.matmul(x.data, w.data) + b.data

    def bwd(g):
        gx = np.matmul(g, w.data.T) if x.requires_grad else None
        gw = None
        if w.requires_grad:
            gw = x.data.reshape(-1, w.shape[0]).T @ g.reshape(-1, w.shape[1])
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return gx, gw, gb

    return _node(out, (x, w, b), bwd, "linear")


def bce_with_logits_mean(logits, targets, axis=None):
    """Mean binary cross-entropy of the probabilities 1 / (1 + e^-z) of the
    logits z against targets in [0,1], over ``axis`` (all axes by default).

    Uses the identity BCE = softplus(z) - t*z with the stable
    softplus(z) = relu(z) + log(1 + e^{-|z|}), which avoids forming the
    probabilities; the gradient is (sigmoid(z) - t) / count.
    """
    z, t = as_tensor(logits), as_tensor(targets)
    zd = z.data
    pos = np.maximum(zd, 0.0)
    e = np.exp((pos + np.maximum(zd * -1.0, 0.0)) * -1.0)  # e^{-|z|}
    e1 = e + 1.0
    loss = (pos + np.log(e1)) - t.data * zd
    out = loss.mean(axis=axis)
    count = loss.size if axis is None else np.prod(
        [loss.shape[i] for i in np.atleast_1d(axis)]
    )

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        g = g / count
        gz = gt = None
        if z.requires_grad:
            sigmoid = np.where(zd >= 0, 1.0, e) / e1
            gz = _unbroadcast((sigmoid - t.data) * g, z.shape)
        if t.requires_grad:
            gt = _unbroadcast(-zd * g, t.shape)
        return gz, gt

    return _node(out, (z, t), bwd, "bce_with_logits")


# -- backward pass ------------------------------------------------------


def _topo_order(root):
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(root, seed=None):
    """Accumulate gradients of ``root`` into every reachable requires-grad leaf.

    Gradients add across fan-out and across repeated calls; callers that want
    fresh gradients zero the parameter slots first. A ``Parameter``'s gradient
    is added in place into its store's buffer view. Any other leaf gets a new
    array: its ``grad`` may be the caller's seed or an upstream node's
    gradient, so it is never written in place.
    """
    if not isinstance(root, Tensor):
        raise UsageError("backward expects a Tensor")
    if not root._parents:
        raise UsageError(
            "backward before forward: the tensor was not produced by recorded operations"
        )
    if seed is None:
        seed = np.ones_like(root.data)
    else:
        seed = np.asarray(seed, dtype=root.data.dtype)
        if seed.shape != root.data.shape:
            raise ShapeError(f"backward seed: {seed.shape} vs {root.data.shape}")

    order = _topo_order(root)
    grads = {id(root): seed}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not node._parents:
            if isinstance(node, Parameter):
                node.grad += g
            else:
                node.grad = g if node.grad is None else node.grad + g
        if node._bwd is None:
            continue
        parent_grads = node._bwd(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


@functools.lru_cache(maxsize=32)
def sinusoidal_table(length, dim):
    """Standard interleaved sin/cos positional table of shape (length, dim)."""
    table = np.zeros((length, dim), dtype=np.float64)
    positions = np.arange(length, dtype=np.float64)[:, None]
    freqs = np.exp(-math.log(10000.0) * (2 * (np.arange(dim) // 2)) / dim)
    angles = positions * freqs[None, :]
    table[:, 0::2] = np.sin(angles[:, 0::2])
    table[:, 1::2] = np.cos(angles[:, 1::2])
    table.flags.writeable = False
    return table
