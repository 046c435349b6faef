"""Reverse-mode differentiable tensors.

A small define-by-run engine on top of numpy: a node (``_node``) records its
parents and a hand-written backward closure, and ``backward`` walks the
recorded graph in exact reverse topological order. The engine provides no
primitive ops: the model records whole blocks as nodes (the goal module,
the rollout and the joint loss of a training window), and the tests keep
the primitive chains those nodes are checked against. Every tensor holds
float64, so finite-difference checks have headroom.
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
    """An n-d float64 array plus an optional gradient slot and graph linkage."""

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_bwd")

    def __init__(self, data, requires_grad=False, op="leaf", _parents=(), _bwd=None):
        self.data = np.asarray(data, dtype=np.float64)
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


class Parameter(Tensor):
    """A trainable leaf owned by a ``ParamStore``: its ``data`` and ``grad``
    are views into the store's flat value and gradient vectors, so
    ``backward`` adds into its ``grad`` in place."""

    __slots__ = ()


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(parents):
    """Whether a node over ``parents`` would be recorded: outside ``no_grad``
    and with a parent that takes gradients."""
    return _record_graph and any(p.requires_grad for p in parents)


def _node(data, parents, bwd, op):
    if _recording(parents):
        return Tensor(data, True, op, tuple(parents), bwd)
    return Tensor(data, False, op)


def _relu_data(x):
    """``np.maximum(x, 0.0)``: the forward of every relu inside a node, in
    one place."""
    return np.maximum(x, 0.0)


def _gemm(x, w):
    """``x @ w`` for a 2-D ``x`` through the BLAS matrix product, also for a
    single row. Each row then equals the same row of a stacked (..., L, d)
    product bit for bit; numpy would hand a one-row product to gemv, which
    sums in another order."""
    if len(x) > 1:
        return np.matmul(x, w)
    return np.matmul(np.repeat(x, 2, axis=0), w)[:1]


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
