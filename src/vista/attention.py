"""Multi-head attention with explicit, exportable attention matrices."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .params import ParamStore, glorot_uniform
from .tensor import ShapeError, _gemm, _node, as_tensor

MHA_WEIGHTS = ("wq", "wk", "wv", "wo")
# No key bias: a constant added to every key contributes the same term to each
# query's logits, which the row softmax cancels, so it could never train.
MHA_BIASES = ("bq", "bv", "bo")


def init_mha_params(store: ParamStore, prefix: str, dim: int, rng: np.random.Generator):
    for w in MHA_WEIGHTS:
        store.add(f"{prefix}.{w}", glorot_uniform(rng, dim, dim, (dim, dim)))
    for b in MHA_BIASES:
        store.add(f"{prefix}.{b}", np.zeros(dim))


class KVCache:
    """Keys ``x @ wk`` and values ``x @ wv + bv`` of one attention layer for a
    token sequence that grows one position at a time; each token is
    projected once, when it is appended.

    The cache starts from a (rows, L, d) block of ``tokens`` and holds up to
    ``capacity`` positions; ``append`` adds one (rows, d) position. Both
    products keep their rows equal to a re-projection of the whole
    sequence, bit for bit. Passed to ``multi_head_attention`` as ``k`` and
    ``v``, the cache makes each appended token tensor a parent of the node.
    """

    def __init__(self, tokens, capacity: int, params: ParamStore, prefix: str):
        tokens = as_tensor(tokens)
        rows, length, dim = tokens.shape
        self.wk, self.wv, self.bv = (params[f"{prefix}.{n}"] for n in ("wk", "wv", "bv"))
        self.x, self.keys, self.values = (np.empty((rows, capacity, dim)) for _ in range(3))
        self.x[:, :length] = tokens.data
        self.keys[:, :length] = np.matmul(tokens.data, self.wk.data)
        self.values[:, :length] = np.matmul(tokens.data, self.wv.data) + self.bv.data
        self.tokens = [tokens]
        self.index = [slice(0, length)]  # each token's place on the position axis
        self.length = length

    def append(self, token):
        """Append one position, ``token`` of shape (rows, d)."""
        token = as_tensor(token)
        if token.shape != self.x.shape[:1] + self.x.shape[2:]:
            raise ShapeError(f"cache of {self.x.shape} rows: token {token.shape}")
        if self.length == self.x.shape[1]:
            raise ShapeError(f"cache full at {self.length} positions")
        i = self.length
        self.x[:, i] = token.data
        self.keys[:, i] = _gemm(token.data, self.wk.data)
        self.values[:, i] = _gemm(token.data, self.wv.data) + self.bv.data
        self.tokens.append(token)
        self.index.append(i)
        self.length += 1


def multi_head_attention(q, k, v, n_heads: int, params: ParamStore, prefix: str, residual=None):
    """Scaled dot-product attention over ``n_heads`` heads, as one graph node.

    ``q``/``k``/``v`` are tensors of shape (..., L, d) with equal leading
    dims; ``k`` and ``v`` must share their row count. Logits are scaled by
    1/sqrt(head_dim). Heads are computed in one stacked matmul by folding the
    head axis into the batch dims. Returns ``(output, attn)`` where ``attn``
    is a detached, read-only array of shape (n_heads, ..., Lq, Lk) whose
    rows each sum to 1. A ``residual`` tensor of the output's size is added
    to the output inside the node.

    ``k`` and ``v`` may instead both be one ``KVCache`` of this layer. Then
    ``q`` is one query token per row, shape (rows, d), projected as a
    (rows, 1, d) operand; the output has q's shape, and the backward returns
    each cached token its key and value gradient.

    The forward is the arithmetic of the projection, head-split, scale,
    softmax and merge ops it replaces, call for call, so it is bit-identical
    to that chain; one backward covers all of them. The same tensor may be
    passed as several of q, k and v: the engine adds the gradient of each.
    """
    q = as_tensor(q)
    dim = q.shape[-1]
    if dim % n_heads != 0:
        raise ConfigError(f"model dim {dim} not divisible by {n_heads} heads")
    head_dim = dim // n_heads
    wq, bq, wk, wv, bv, wo, bo = (
        params[f"{prefix}.{name}"] for name in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")
    )
    cached = isinstance(k, KVCache)
    if cached:
        cache = k
        if v is not cache or cache.wk is not wk:
            raise ShapeError(f"attention: k and v must be one KVCache of {prefix}")
        if q.shape != cache.x.shape[:1] + cache.x.shape[2:]:
            raise ShapeError(f"attention: q {q.shape} for a cache of {cache.x.shape}")
        kv_parents, kv_index = tuple(cache.tokens), tuple(cache.index)
        k_grad = v_grad = any(t.requires_grad for t in kv_parents)
        q_in = q.data[:, None]
        k_in = v_in = cache.x[:, : cache.length]
        k_proj, v_proj = cache.keys[:, : cache.length], cache.values[:, : cache.length]
    else:
        k, v = as_tensor(k), as_tensor(v)
        if k.shape[-2] != v.shape[-2]:
            raise ConfigError(f"key rows {k.shape[-2]} != value rows {v.shape[-2]}")
        if len({t.shape[:-2] + t.shape[-1:] for t in (q, k, v)}) != 1:
            raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
        kv_parents = (k, v)
        k_grad, v_grad = k.requires_grad, v.requires_grad
        q_in, k_in, v_in = q.data, k.data, v.data
        k_proj, v_proj = np.matmul(k_in, wk.data), np.matmul(v_in, wv.data) + bv.data
    nb = q_in.ndim - 2
    swap = tuple(range(nb)) + (nb + 1, nb, nb + 2)  # (..., L, h, hd) <-> (..., h, L, hd)

    def split_heads(x):  # (..., L, d) -> (..., h, L, head_dim), a view
        return np.transpose(x.reshape(x.shape[:-1] + (n_heads, head_dim)), swap)

    def merge_heads(x):  # (..., h, L, head_dim) -> (..., L, d)
        return np.transpose(x, swap).reshape(x.shape[:nb] + (x.shape[-2], dim))

    qh = split_heads(np.matmul(q_in, wq.data) + bq.data)
    kh = split_heads(k_proj)
    vh = split_heads(v_proj)
    c = 1.0 / math.sqrt(head_dim)
    logits = np.matmul(qh, np.swapaxes(kh, -1, -2)) * c
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    merged = merge_heads(np.matmul(weights, vh))
    out = np.matmul(merged, wo.data) + bo.data
    if residual is not None:
        residual = as_tensor(residual)
        out = residual.data.reshape(out.shape) + out

    def project_back(x, x_grad, w, b, gp):
        """Gradients of ``x @ w + b`` (b may be None) for the output's ``gp``."""
        flat = gp.reshape(-1, dim)
        return (
            np.matmul(gp, w.data.T) if x_grad else None,
            x.reshape(-1, dim).T @ flat if w.requires_grad else None,
            flat.sum(axis=0) if b is not None and b.requires_grad else None,
        )

    def bwd(g):
        g_merged, gwo, gbo = project_back(merged, True, wo, bo, g.reshape(out.shape))
        g_mixed = split_heads(g_merged)
        g_weights = np.matmul(g_mixed, np.swapaxes(vh, -1, -2))
        g_vh = np.matmul(np.swapaxes(weights, -1, -2), g_mixed)
        g_logits = weights * (g_weights - (g_weights * weights).sum(axis=-1, keepdims=True))
        g_logits *= c
        g_qh = np.matmul(g_logits, kh)
        g_kh = np.matmul(np.swapaxes(g_logits, -1, -2), qh)
        gq, gwq, gbq = project_back(q_in, q.requires_grad, wq, bq, merge_heads(g_qh))
        k_rows = k_in.reshape(-1, dim)  # a copy for a cache's strided block: make it once
        v_rows = k_rows if v_in is k_in else v_in.reshape(-1, dim)
        gk, gwk, _ = project_back(k_rows, k_grad, wk, None, merge_heads(g_kh))
        gv, gwv, gbv = project_back(v_rows, v_grad, wv, bv, merge_heads(g_vh))
        if not cached:
            g_kv = (gk, gv)
        else:
            gq = None if gq is None else gq.reshape(q.shape)
            g_kv = [None] * len(kv_index)
            if k_grad:
                g_tokens = gk + gv
                g_kv = [g_tokens[:, i] for i in kv_index]
        g_res = () if residual is None else (g.reshape(residual.shape),)
        return gq, *g_kv, gwq, gbq, gwk, gwv, gbv, gwo, gbo, *g_res

    parents = (q, *kv_parents, wq, bq, wk, wv, bv, wo, bo)
    if residual is not None:
        parents += (residual,)
    node = _node(out.reshape(q.shape), parents, bwd, "attention")
    attn = np.transpose(weights, (nb,) + tuple(range(nb)) + (nb + 1, nb + 2))  # heads leading
    attn.flags.writeable = False  # a view of what the backward reads
    return node, attn
