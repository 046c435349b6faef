"""The engine's primitive library, which only the tests use, and the
reference chains built from it.

``vista.tensor`` is the engine core alone: the model records whole blocks
as hand-written nodes. The primitives here (elementwise ``add``, ``sub``,
``mul`` and ``scale``, ``matmul``, ``reshape``, ``narrow``, the sum and mean
reductions, ``layer_norm``, ``linear``, ``bce_with_logits_mean``, the
softmax, transpose, exp, log, concat, relu and 3x3 convolution nodes) are
the ops of the unfused chains that those nodes are checked against:
``embed_tokens`` and ``goal_feature`` are the token embedding and goal term
of the rollout node's reference, ``reference_multi_head_attention`` and the
per-layer goal module chain rebuild the attention and goal module nodes,
and the loss node is checked against the chain of reductions it replaced.
Also here: the check of a fused node against the chain it replaces, and the
per-array Adam step that the flat-buffer Adam is checked against."""

from __future__ import annotations

import numpy as np

from vista import tensor, tpm
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


def constant(x):
    """A leaf tensor that never takes gradients."""
    return Tensor(x, requires_grad=False)


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


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


def embed_tokens(points, anchor, time_indices, params, config):
    """Tokens ``(points - anchor) @ W + b + (sinusoidal(t) + learnable(t))``
    as one node, for points (..., 2) and one time index per token row: the
    (len(time_indices), d) per-index terms broadcast against the trailing
    axes of the output."""
    points = as_tensor(points)
    w, b, learn = params["tpm.embed.w"], params["tpm.embed.b"], params["tpm.pe.learn"]
    idx = np.asarray(time_indices, dtype=np.int64)
    rel = points.data - anchor
    out = tpm._embed(rel, idx, params, config)

    def bwd(g):
        glearn = np.zeros(learn.shape, dtype=g.dtype)
        np.add.at(glearn, idx, _unbroadcast(g, idx.shape + learn.shape[1:]))
        return (
            np.matmul(g, w.data.T) if points.requires_grad else None,
            rel.reshape(-1, 2).T @ g.reshape(-1, w.shape[1]),
            _unbroadcast(g, b.shape),
            glearn,
        )

    return _node(out, (points, w, b, learn), bwd, "embed")


def goal_feature(goal_tokens, params):
    """The normalized goal term (N, d) of the fusion for goal tokens (N, 1, d).

    This is the cross-attention of ``tpm.fusion.cross`` from any query to
    the one goal token: its softmax weight is exactly 1.0, so the output is
    the value/output path alone, bit for bit."""
    n, _, d = goal_tokens.shape
    value = linear(goal_tokens, params["tpm.fusion.cross.wv"], params["tpm.fusion.cross.bv"])
    out = linear(value, params["tpm.fusion.cross.wo"], params["tpm.fusion.cross.bo"])
    normed = add(
        mul(layer_norm(out), params["tpm.fusion.norm.gamma"]), params["tpm.fusion.norm.beta"]
    )
    return reshape(normed, (n, d))


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
