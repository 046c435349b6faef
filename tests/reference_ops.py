"""Engine ops that only the tests use: the softmax and transpose nodes of the
unfused attention chain that ``reference_multi_head_attention`` rebuilds, the
exp and log nodes of the unfused softplus the BCE node is checked against,
the concat, relu and 3x3 convolution nodes of the per-layer chains that the
goal module and rollout nodes are checked against, the check of a fused node
against the chain it replaces, and the per-array Adam step that the
flat-buffer Adam is checked against."""

from __future__ import annotations

import numpy as np

from vista import tensor
from vista.tensor import ShapeError, Tensor, _node, as_tensor, backward


def outputs_and_grads(fn, arrays):
    """``fn``'s output for leaves made from ``arrays`` and each leaf's
    gradient under a fixed random seed."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    backward(out, seed=np.random.default_rng(0).normal(size=out.shape))
    return out.data, [leaf.grad for leaf in leaves]


def assert_fused_matches(fused, reference, arrays):
    """A fused node against the primitive chain it replaces: the forward
    bit for bit, each gradient within 1e-12 of the largest reference entry."""
    out, grads = outputs_and_grads(fused, arrays)
    ref_out, ref_grads = outputs_and_grads(reference, arrays)
    assert out.tobytes() == ref_out.tobytes()
    for g, ref in zip(grads, ref_grads, strict=True):
        tol = 1e-12 * max(1.0, np.abs(ref).max())
        np.testing.assert_allclose(g, ref, rtol=0, atol=tol)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {[t.shape for t in tensors]}: {exc}") from None
    bounds = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g):
        return tuple(np.split(g, bounds, axis=axis))

    return _node(out, tuple(tensors), bwd, "concat")


def relu(a):
    """The relu node; its forward goes through ``tensor._relu_data``, where
    ``fdcheck.record_activations`` counts its active units."""
    a = as_tensor(a)
    out = tensor._relu_data(a.data)

    def bwd(g):
        return (g * (a.data > 0),)

    return _node(out, (a,), bwd, "relu")


def im2col(x):
    """The (n*h*w, 9*c) matrix of each pixel's zero-padded 3x3 neighbourhood
    of ``x`` (n, h, w, c), in the (di, dj, c) order of a (3, 3, c, c_out)
    kernel flattened row-major."""
    n, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    shifts = [xp[:, di : di + h, dj : dj + w] for di in range(3) for dj in range(3)]
    return np.concatenate(shifts, axis=3).reshape(n * h * w, 9 * c)


def conv3x3(x, w, b):
    """Same-padded 3x3 convolution as one node: one im2col matmul. The input
    gradient is the im2col of the output gradient times the kernel flipped
    in (di, dj) and transposed in channels."""
    n, h, wd, cin = x.shape
    cout = w.shape[-1]
    columns = im2col(x.data)
    out = np.matmul(columns, w.data.reshape(9 * cin, cout)) + b.data

    def bwd(g):
        g = g.reshape(n * h * wd, cout)
        gx = None
        if x.requires_grad:
            flipped = w.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * cout, cin)
            gx = np.matmul(im2col(g.reshape(n, h, wd, cout)), flipped).reshape(x.shape)
        return gx, (columns.T @ g).reshape(w.shape), g.sum(axis=0)

    return _node(out.reshape(n, h, wd, cout), (x, w, b), bwd, "conv3x3")


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


def reference_adam_step(params, m, v, t, lr, cfg):
    """One Adam step as a loop over parameter arrays, with per-name moment
    dicts ``m`` and ``v`` updated in place; ``t`` is the 1-based step."""
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            g = p.grad
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            p.data[...] = p.data - lr * (m[name] / c1) / (
                np.sqrt(v[name] / c2) + cfg.adam_eps
            )
