"""Engine ops that only the tests use: the softmax and transpose nodes of the
unfused attention chain that ``reference_multi_head_attention`` rebuilds, and
the exp and log nodes of the unfused softplus the BCE node is checked against."""

from __future__ import annotations

import numpy as np

from vista.tensor import _node, as_tensor


def transpose(a, axes=None):
    a = as_tensor(a)
    out = np.transpose(a.data, axes)
    inv = None if axes is None else tuple(np.argsort(axes))

    def bwd(g):
        return (np.transpose(g, inv),)

    return _node(out, (a,), bwd, "transpose")


def softmax(a, axis=-1):
    """Numerically shifted softmax along ``axis``; rows sum to 1."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _node(out, (a,), bwd, "softmax")


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _node(out, (a,), bwd, "exp")


def log(a):
    a = as_tensor(a)
    out = np.log(a.data)

    def bwd(g):
        return (g / a.data,)

    return _node(out, (a,), bwd, "log")
