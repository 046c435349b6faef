"""Multi-head attention with explicit, exportable attention matrices.

``attend`` and ``attend_backward`` are the one copy of the attention
arithmetic: ``multi_head_attention`` wraps them in a graph node, and the
rollout node (``tpm.rollout``) calls them once per step over the keys and
values it projects itself."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .params import ParamStore, glorot_uniform
from .tensor import ShapeError, _node, as_tensor

MHA_WEIGHTS = ("wq", "wk", "wv", "wo")
# No key bias: a constant added to every key contributes the same term to each
# query's logits, which the row softmax cancels, so it could never train.
MHA_BIASES = ("bq", "bv", "bo")


def init_mha_params(arrays: dict, prefix: str, dim: int, rng: np.random.Generator):
    """Add one layer's Glorot weights, in rng draw order, and zero biases to ``arrays``."""
    for w in MHA_WEIGHTS:
        arrays[f"{prefix}.{w}"] = glorot_uniform(rng, dim, dim, (dim, dim))
    for b in MHA_BIASES:
        arrays[f"{prefix}.{b}"] = np.zeros(dim)


def mha_params(params: ParamStore, prefix: str):
    """The layer's (wq, bq, wk, wv, bv, wo, bo), in graph-parent order."""
    return tuple(params[f"{prefix}.{n}"] for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo"))


def _split_heads(x, n_heads):  # (..., L, d) -> (..., h, L, d/h), a view
    return x.reshape(x.shape[:-1] + (n_heads, x.shape[-1] // n_heads)).swapaxes(-3, -2)


def _merge_heads(x):  # (..., h, L, hd) -> (..., L, h*hd)
    return x.swapaxes(-3, -2).reshape(x.shape[:-3] + (x.shape[-2], x.shape[-3] * x.shape[-1]))


def attend(qp, kp, vp, n_heads: int):
    """Scaled dot-product attention of projected queries ``qp`` (..., Lq, d)
    over projected keys ``kp`` and values ``vp`` (..., Lk, d), with the
    ``n_heads`` heads folded into the batch dims and logits scaled by
    1/sqrt(head_dim). Returns the merged head outputs (..., Lq, d) and the
    operands ``attend_backward`` reads, of which the last is the
    (..., h, Lq, Lk) attention weights."""
    qh, kh, vh = (_split_heads(x, n_heads) for x in (qp, kp, vp))
    c = 1.0 / math.sqrt(qh.shape[-1])
    logits = np.matmul(qh, kh.swapaxes(-1, -2)) * c
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return _merge_heads(np.matmul(weights, vh)), (qh, kh, vh, weights)


def attend_backward(g_merged, saved):
    """Gradients (g_qp, g_kp, g_vp) of ``attend`` for the merged output's
    gradient ``g_merged``; ``saved`` is what ``attend`` returned with it."""
    qh, kh, vh, weights = saved
    g_mixed = _split_heads(g_merged, qh.shape[-3])
    g_weights = np.matmul(g_mixed, vh.swapaxes(-1, -2))
    g_vh = np.matmul(weights.swapaxes(-1, -2), g_mixed)
    g_logits = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
    g_logits *= 1.0 / math.sqrt(qh.shape[-1])
    g_qh = np.matmul(g_logits, kh)
    g_kh = np.matmul(g_logits.swapaxes(-1, -2), qh)
    return _merge_heads(g_qh), _merge_heads(g_kh), _merge_heads(g_vh)


def heads_first(weights):
    """The (h, ..., Lq, Lk) read-only view of ``attend``'s weights."""
    attn = np.moveaxis(weights, -3, 0)
    attn.flags.writeable = False  # a view of what the backward reads
    return attn


def _project_back(x, x_grad, w, b, gp):
    """Gradients of ``x @ w + b`` (b may be None) for the output's ``gp``."""
    flat = gp.reshape(-1, w.shape[1])
    return (
        np.matmul(gp, w.data.T) if x_grad else None,
        x.reshape(-1, w.shape[0]).T @ flat if w.requires_grad else None,
        flat.sum(axis=0) if b is not None and b.requires_grad else None,
    )


def multi_head_attention(q, k, v, n_heads: int, params: ParamStore, prefix: str):
    """Multi-head attention of ``q`` over ``k`` and ``v``, as one graph node.

    ``q``/``k``/``v`` are tensors of shape (..., L, d) with equal leading
    dims; ``k`` and ``v`` must share their row count. Returns ``(output,
    attn)`` where ``attn`` is a detached, read-only array of shape
    (n_heads, ..., Lq, Lk) whose rows each sum to 1.

    The forward is the arithmetic of the projection, head-split, scale,
    softmax and merge ops it replaces, call for call, so it is bit-identical
    to that chain; one backward covers all of them. The same tensor may be
    passed as several of q, k and v: the engine adds the gradient of each.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.shape[-1] % n_heads != 0:
        raise ConfigError(f"model dim {q.shape[-1]} not divisible by {n_heads} heads")
    if k.shape[-2] != v.shape[-2]:
        raise ConfigError(f"key rows {k.shape[-2]} != value rows {v.shape[-2]}")
    if len({t.shape[:-2] + t.shape[-1:] for t in (q, k, v)}) != 1:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    wq, bq, wk, wv, bv, wo, bo = weights = mha_params(params, prefix)
    merged, saved = attend(
        np.matmul(q.data, wq.data) + bq.data,
        np.matmul(k.data, wk.data),
        np.matmul(v.data, wv.data) + bv.data,
        n_heads,
    )
    out = np.matmul(merged, wo.data) + bo.data

    def bwd(g):
        g_merged, gwo, gbo = _project_back(merged, True, wo, bo, g)
        g_qp, g_kp, g_vp = attend_backward(g_merged, saved)
        gq, gwq, gbq = _project_back(q.data, q.requires_grad, wq, bq, g_qp)
        gk, gwk, _ = _project_back(k.data, k.requires_grad, wk, None, g_kp)
        gv, gwv, gbv = _project_back(v.data, v.requires_grad, wv, bv, g_vp)
        return gq, gk, gv, gwq, gbq, gwk, gwv, gbv, gwo, gbo

    return _node(out, (q, k, v, *weights), bwd, "attention"), heads_first(saved[-1])
