import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import add, matmul, narrow, reshape, scale, softmax, transpose

from vista.attention import init_mha_params, multi_head_attention
from vista.errors import ConfigError
from vista.params import ParamStore
from vista.tensor import Tensor, backward


def reference_multi_head_attention(q, k, v, n_heads: int, params: ParamStore, prefix: str):
    """The 20-node chain of engine ops that ``multi_head_attention`` fuses."""
    dim = q.shape[-1]
    if dim % n_heads != 0:
        raise ConfigError(f"model dim {dim} not divisible by {n_heads} heads")
    if k.shape[-2] != v.shape[-2]:
        raise ConfigError(f"key rows {k.shape[-2]} != value rows {v.shape[-2]}")
    head_dim = dim // n_heads

    def split_heads(x):
        # (..., L, d) -> (..., h, L, head_dim)
        batch = x.shape[:-2]
        length = x.shape[-2]
        x = reshape(x, batch + (length, n_heads, head_dim))
        axes = tuple(range(len(batch))) + (x.ndim - 2, x.ndim - 3, x.ndim - 1)
        return transpose(x, axes)

    qh = split_heads(add(matmul(q, params[f"{prefix}.wq"]), params[f"{prefix}.bq"]))
    kh = split_heads(matmul(k, params[f"{prefix}.wk"]))
    vh = split_heads(add(matmul(v, params[f"{prefix}.wv"]), params[f"{prefix}.bv"]))

    swap = tuple(range(kh.ndim - 2)) + (kh.ndim - 1, kh.ndim - 2)
    logits = scale(matmul(qh, transpose(kh, swap)), 1.0 / math.sqrt(head_dim))
    weights = softmax(logits, axis=-1)
    mixed = matmul(weights, vh)  # (..., h, Lq, head_dim)

    batch = q.shape[:-2]
    lq = q.shape[-2]
    back = tuple(range(len(batch))) + (mixed.ndim - 2, mixed.ndim - 3, mixed.ndim - 1)
    merged = reshape(transpose(mixed, back), batch + (lq, dim))
    out = add(matmul(merged, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])

    attn = np.moveaxis(weights.data.copy(), -3, 0)  # heads leading
    return out, attn


def identity_params(dim, prefix="mha"):
    arrays = {f"{prefix}.{w}": np.eye(dim) for w in ("wq", "wk", "wv", "wo")}
    arrays.update({f"{prefix}.{b}": np.zeros(dim) for b in ("bq", "bv", "bo")})
    return ParamStore(arrays)


def test_single_key_attends_fully():
    store = identity_params(4)
    q = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
    kv = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
    out, attn = multi_head_attention(q, kv, kv, 2, store, "mha")
    np.testing.assert_array_equal(attn, np.ones((2, 3, 1)))
    np.testing.assert_allclose(out.data, np.tile(kv.data, (3, 1)), atol=1e-12)


def test_equal_logits_give_half_half():
    store = identity_params(4)
    q = Tensor(np.ones((1, 4)))
    kv = Tensor(np.zeros((2, 4)))  # both keys produce identical logits
    _, attn = multi_head_attention(q, kv, kv, 2, store, "mha")
    np.testing.assert_allclose(attn, np.full((2, 1, 2), 0.5), atol=1e-15)


def test_one_head_dim_two_matches_hand_computation():
    # Identity projections, one head: out = softmax(Q K^T / sqrt(2)) V.
    store = identity_params(2)
    q_data = np.array([[1.0, 0.5], [-0.3, 0.2]])
    k_data = np.array([[0.4, -1.0], [2.0, 0.1], [0.0, 0.7]])
    v_data = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.0]])
    out, attn = multi_head_attention(Tensor(q_data), Tensor(k_data), Tensor(v_data), 1, store, "mha")

    logits = q_data @ k_data.T / math.sqrt(2.0)
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    weights = ex / ex.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(attn[0], weights, atol=1e-12)
    np.testing.assert_allclose(out.data, weights @ v_data, atol=1e-12)


def test_dim_not_divisible_by_heads():
    store = identity_params(4)
    x = Tensor(np.zeros((2, 4)))
    with pytest.raises(ConfigError, match="divisible"):
        multi_head_attention(x, x, x, 3, store, "mha")


def test_key_value_row_mismatch():
    store = identity_params(4)
    q = Tensor(np.zeros((2, 4)))
    k = Tensor(np.zeros((3, 4)))
    v = Tensor(np.zeros((2, 4)))
    with pytest.raises(ConfigError, match="rows"):
        multi_head_attention(q, k, v, 2, store, "mha")


def test_batched_matches_per_sequence():
    rng = np.random.default_rng(5)
    arrays = {}
    init_mha_params(arrays, "mha", 8, rng)
    store = ParamStore(arrays)
    x = rng.normal(size=(3, 5, 8))
    out_b, attn_b = multi_head_attention(Tensor(x), Tensor(x), Tensor(x), 4, store, "mha")
    for i in range(3):
        xi = Tensor(x[i])
        out_i, attn_i = multi_head_attention(xi, xi, xi, 4, store, "mha")
        np.testing.assert_allclose(out_b.data[i], out_i.data, atol=1e-12)
        np.testing.assert_allclose(attn_b[:, i], attn_i, atol=1e-12)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([1, 2, 4]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_rows_stochastic_for_random_inputs(lq, lk, heads, seed):
    rng = np.random.default_rng(seed)
    dim = 8
    arrays = {}
    init_mha_params(arrays, "mha", dim, rng)
    store = ParamStore(arrays)
    q = Tensor(rng.normal(scale=3.0, size=(lq, dim)))
    kv = Tensor(rng.normal(scale=3.0, size=(lk, dim)))
    out, attn = multi_head_attention(q, kv, kv, heads, store, "mha")
    assert attn.shape == (heads, lq, lk)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)
    assert out.shape == (lq, dim)


# -- the one-node attention against the chain it replaces ----------------------


def temporal_case(rng):
    """The fusion's temporal layer: the last row of each agent's tokens
    queries all of them, and the tokens are both keys and values."""
    tokens = Tensor(rng.normal(size=(4, 6, 8)), requires_grad=True)
    return [tokens], (narrow(tokens, (slice(None), slice(5, 6))), tokens, tokens)


def social_case(rng):
    """Social attention over a (B, N, d) batch: one tensor is q, k and v."""
    feats = Tensor(rng.normal(size=(3, 5, 8)), requires_grad=True)
    return [feats], (feats, feats, feats)


def distinct_case(rng):
    q, k, v = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((2, 8), (7, 8), (7, 8)))
    return [q, k, v], (q, k, v)


def set_random_biases(store, prefix, rng):
    """Draw the layer's biases in place."""
    for b in ("bq", "bv", "bo"):
        store[f"{prefix}.{b}"].data[...] = rng.normal(size=store[f"{prefix}.{b}"].shape)


def attend_and_grads(attend, case):
    """Output, attention and the gradient of every input and parameter for
    a random upstream gradient, with seeded inputs and parameters."""
    rng = np.random.default_rng(9)
    arrays = {}
    init_mha_params(arrays, "mha", 8, rng)
    store = ParamStore(arrays)
    set_random_biases(store, "mha", rng)
    leaves, (q, k, v) = case(rng)
    out, attn = attend(q, k, v, 2, store, "mha")
    backward(out, seed=rng.normal(size=out.shape))
    grads = {f"input{i}": leaf.grad for i, leaf in enumerate(leaves)}
    grads.update((name, t.grad) for name, t in store.items())
    return out.data, attn, grads


@pytest.mark.parametrize("case", [temporal_case, social_case, distinct_case])
def test_one_node_attention_matches_reference(case):
    ref_out, ref_attn, ref_grads = attend_and_grads(reference_multi_head_attention, case)
    out, attn, grads = attend_and_grads(multi_head_attention, case)
    assert out.tobytes() == ref_out.tobytes()
    assert attn.shape == ref_attn.shape and attn.tobytes() == ref_attn.tobytes()
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        tol = 1e-12 * max(1.0, np.abs(ref).max())
        np.testing.assert_allclose(grads[name], ref, rtol=0, atol=tol, err_msg=name)


def test_attention_records_one_node():
    _, (q, k, v) = social_case(np.random.default_rng(0))
    arrays = {}
    init_mha_params(arrays, "mha", 8, np.random.default_rng(1))
    store = ParamStore(arrays)
    out, attn = multi_head_attention(q, k, v, 2, store, "mha")
    assert out.op == "attention"
    assert not attn.flags.writeable  # a view of what the backward reads
    assert {id(p) for p in out._parents} == {id(q)} | {id(t) for _, t in store.items()}
