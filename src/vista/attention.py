"""Multi-head attention with explicit, exportable attention matrices."""

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


def init_mha_params(store: ParamStore, prefix: str, dim: int, rng: np.random.Generator):
    for w in MHA_WEIGHTS:
        store.add(f"{prefix}.{w}", glorot_uniform(rng, dim, dim, (dim, dim)))
    for b in MHA_BIASES:
        store.add(f"{prefix}.{b}", np.zeros(dim))


def multi_head_attention(q, k, v, n_heads: int, params: ParamStore, prefix: str):
    """Scaled dot-product attention over ``n_heads`` heads, as one graph node.

    ``q``/``k``/``v`` are tensors of shape (..., L, d) with equal leading
    dims; ``k`` and ``v`` must share their row count. Logits are scaled by
    1/sqrt(head_dim). Heads are computed in one stacked matmul by folding the
    head axis into the batch dims. Returns ``(output, attn)`` where ``attn``
    is a detached array of shape (n_heads, ..., Lq, Lk) whose rows each sum
    to 1.

    The forward is the arithmetic of the projection, head-split, scale,
    softmax and merge ops it replaces, call for call, so it is bit-identical
    to that chain; one backward covers all of them. The same tensor may be
    passed as several of q, k and v: the engine adds the gradient of each.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    dim = q.shape[-1]
    if dim % n_heads != 0:
        raise ConfigError(f"model dim {dim} not divisible by {n_heads} heads")
    if k.shape[-2] != v.shape[-2]:
        raise ConfigError(f"key rows {k.shape[-2]} != value rows {v.shape[-2]}")
    if len({t.shape[:-2] + t.shape[-1:] for t in (q, k, v)}) != 1:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    head_dim = dim // n_heads
    wq, bq, wk, wv, bv, wo, bo = (
        params[f"{prefix}.{name}"] for name in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")
    )
    nb = q.ndim - 2
    swap = tuple(range(nb)) + (nb + 1, nb, nb + 2)  # (..., L, h, hd) <-> (..., h, L, hd)

    def split_heads(x):  # (..., L, d) -> (..., h, L, head_dim), a view
        return np.transpose(x.reshape(x.shape[:-1] + (n_heads, head_dim)), swap)

    def merge_heads(x):  # (..., h, L, head_dim) -> (..., L, d)
        return np.transpose(x, swap).reshape(x.shape[:nb] + (x.shape[-2], dim))

    qh = split_heads(np.matmul(q.data, wq.data) + bq.data)
    kh = split_heads(np.matmul(k.data, wk.data))
    vh = split_heads(np.matmul(v.data, wv.data) + bv.data)
    c = 1.0 / math.sqrt(head_dim)
    logits = np.matmul(qh, np.swapaxes(kh, -1, -2)) * c
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    merged = merge_heads(np.matmul(weights, vh))
    out = np.matmul(merged, wo.data) + bo.data

    def project_back(x, x_grad, w, b, gp):
        """Gradients of ``x @ w + b`` (b may be None) for the output's ``gp``."""
        flat = gp.reshape(-1, dim)
        return (
            np.matmul(gp, w.data.T) if x_grad else None,
            x.reshape(-1, dim).T @ flat if w.requires_grad else None,
            flat.sum(axis=0) if b is not None and b.requires_grad else None,
        )

    def bwd(g):
        g_merged, gwo, gbo = project_back(merged, True, wo, bo, g)
        g_mixed = split_heads(g_merged)
        g_weights = np.matmul(g_mixed, np.swapaxes(vh, -1, -2))
        g_vh = np.matmul(np.swapaxes(weights, -1, -2), g_mixed)
        g_logits = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
        g_logits *= c
        g_qh = np.matmul(g_logits, kh)
        g_kh = np.matmul(np.swapaxes(g_logits, -1, -2), qh)
        gq, gwq, gbq = project_back(q.data, q.requires_grad, wq, bq, merge_heads(g_qh))
        gk, gwk, _ = project_back(k.data, k.requires_grad, wk, None, merge_heads(g_kh))
        gv, gwv, gbv = project_back(v.data, v.requires_grad, wv, bv, merge_heads(g_vh))
        return gq, gk, gv, gwq, gbq, gwk, gwv, gbv, gwo, gbo

    node = _node(out, (q, k, v, wq, bq, wk, wv, bv, wo, bo), bwd, "attention")
    attn = np.moveaxis(weights.copy(), -3, 0)  # heads leading
    return node, attn
