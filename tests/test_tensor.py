import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference_ops import (
    add,
    assert_fused_matches,
    bce_with_logits_mean,
    concat,
    exp,
    layer_norm,
    linear,
    log,
    matmul,
    mul,
    narrow,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    scale,
    softmax,
    sub,
)

from vista.params import ParamStore
from vista.tensor import ShapeError, Tensor, UsageError, backward, no_grad, sinusoidal_table


def grad_of(fn, x_data):
    x = Tensor(x_data, requires_grad=True)
    backward(fn(x))
    return x.grad


class TestForwardExamples:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(matmul(a, eye).data, a.data)

    def test_softmax_symmetry(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_layer_norm_constant_vector_is_zero(self):
        out = layer_norm(Tensor([5.0, 5.0, 5.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 0.0])

    def test_forward_deterministic_bitwise(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(4, 8))

        def run():
            x = Tensor(q)
            return softmax(matmul(layer_norm(x), Tensor(np.eye(8)))).data

        assert np.array_equal(run(), run())

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


class TestBackwardExamples:
    def test_product_rule(self):
        x = Tensor(3.0, requires_grad=True)
        y = Tensor(5.0, requires_grad=True)
        backward(mul(x, y))
        assert x.grad == 5.0
        assert y.grad == 3.0

    def test_softmax_jacobian_matches_analytic(self):
        # d softmax(z)_i / d z_j = s_i (delta_ij - s_j), on z = [1, 2]
        z = np.array([1.0, 2.0])
        s = np.exp(z) / np.exp(z).sum()
        jac = np.diag(s) - np.outer(s, s)
        for i in range(2):
            x = Tensor(z, requires_grad=True)
            out = softmax(x)
            backward(out, seed=np.eye(2)[i])
            np.testing.assert_allclose(x.grad, jac[i], atol=1e-12)

    def test_backward_before_forward_raises(self):
        leaf = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(UsageError):
            backward(leaf)

    def test_fanout_gradients_accumulate(self):
        x = Tensor(2.0, requires_grad=True)
        y = add(mul(x, x), mul(x, x))  # two uses of the same product node input
        backward(y)
        assert x.grad == pytest.approx(8.0)

    def test_gradient_accumulates_across_calls(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(reduce_sum(mul(x, x)))
        first = x.grad.copy()
        backward(reduce_sum(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_repeated_backward_on_plain_leaf_keeps_the_seed(self):
        # The reshape hands the seed itself down as x's gradient: the second
        # call must add into a new array, not into the caller's seed, while
        # the store parameter adds into its buffer view.
        store = ParamStore({"p": np.zeros(2)})
        p = store["p"]
        x = Tensor([1.0, -2.0], requires_grad=True)
        seed = np.array([[0.5, 3.0]])
        y = reshape(add(x, p), (1, 2))
        backward(y, seed=seed)
        backward(y, seed=seed)
        np.testing.assert_array_equal(seed, [[0.5, 3.0]])
        np.testing.assert_array_equal(x.grad, [1.0, 6.0])
        np.testing.assert_array_equal(p.grad, [1.0, 6.0])
        assert np.shares_memory(p.grad, store.grads)

    def test_slice_concat_roundtrip_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = concat([narrow(x, (slice(None), slice(0, 1))), narrow(x, (slice(None), slice(1, 3)))], axis=1)
        backward(reduce_sum(mul(y, y)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_mean_axis_grad(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        backward(reduce_sum(reduce_mean(x, axis=(1, 2))))
        np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1 / 12))

    def test_batched_matmul_grad_matches_loop(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(5, 2))
        at = Tensor(a, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        backward(reduce_sum(matmul(at, bt)))
        ga, gb = at.grad.copy(), bt.grad.copy()

        ga_ref = np.zeros_like(a)
        gb_ref = np.zeros_like(b)
        for i in range(3):
            ai = Tensor(a[i], requires_grad=True)
            bi = Tensor(b, requires_grad=True)
            backward(reduce_sum(matmul(ai, bi)))
            ga_ref[i] = ai.grad
            gb_ref += bi.grad
        np.testing.assert_allclose(ga, ga_ref, atol=1e-12)
        np.testing.assert_allclose(gb, gb_ref, atol=1e-12)


class TestFusedNodes:
    """Each fused node against the chain of primitives it replaces: the
    forward bit for bit, gradients within 1e-12 of the largest."""

    @pytest.mark.parametrize("x_shape", [(5, 3), (2, 4, 3)])
    def test_linear_matches_matmul_add(self, x_shape):
        rng = np.random.default_rng(4)
        arrays = [rng.normal(size=x_shape), rng.normal(size=(3, 6)), rng.normal(size=6)]
        assert_fused_matches(linear, lambda x, w, b: add(matmul(x, w), b), arrays)

    def test_linear_rejects_mismatched_weight(self):
        with pytest.raises(ShapeError, match="linear"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    @pytest.mark.parametrize("axis", [None, (1, 2)])
    def test_bce_matches_softplus_chain(self, axis):
        def chain(z, t):
            softplus = add(relu(z), log(add(
                exp(scale(add(relu(z), relu(scale(z, -1.0))), -1.0)), Tensor(np.ones(z.shape))
            )))
            return reduce_mean(sub(softplus, mul(t, z)), axis=axis)

        # Not z = 0, where the chain's relu subgradients give a gradient of
        # -t instead of sigmoid(0) - t (test_softplus_stable_at_extremes).
        rng = np.random.default_rng(5)
        z = rng.normal(scale=30.0, size=(2, 4, 4))
        z[0, 0, :2] = [-1000.0, 1000.0]
        arrays = [z, rng.uniform(size=(2, 4, 4))]
        assert_fused_matches(lambda z, t: bce_with_logits_mean(z, t, axis=axis), chain, arrays)


class TestGradientLinearity:
    def test_linear_combination_of_losses(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 3))

        def grads(fn):
            x = Tensor(data, requires_grad=True)
            backward(fn(x))
            return x.grad

        g1 = grads(lambda x: reduce_sum(mul(x, x)))
        g2 = grads(lambda x: reduce_sum(relu(x)))
        a, b = 0.3, -1.7
        combined = grads(
            lambda x: add(mul(reduce_sum(mul(x, x)), Tensor(a)), mul(reduce_sum(relu(x)), Tensor(b)))
        )
        np.testing.assert_allclose(combined, a * g1 + b * g2, atol=1e-10)


class TestComposites:
    def test_softplus_stable_at_extremes(self):
        # With target 0 the BCE of each one-element row is softplus(z), and
        # its gradient is sigmoid(z).
        z = Tensor([[-1000.0], [0.0], [1000.0]], requires_grad=True)
        out = bce_with_logits_mean(z, Tensor(np.zeros((3, 1))), axis=1)
        np.testing.assert_allclose(out.data, [0.0, np.log(2.0), 1000.0], atol=1e-12)
        assert np.isfinite(out.data).all()
        backward(reduce_sum(out))
        np.testing.assert_array_equal(z.grad, [[0.0], [0.5], [1.0]])

    def test_bce_with_logits_matches_direct(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(4, 4))
        t = rng.uniform(size=(4, 4))
        p = 1 / (1 + np.exp(-z))
        direct = -(t * np.log(p) + (1 - t) * np.log(1 - p)).mean()
        out = bce_with_logits_mean(Tensor(z), Tensor(t))
        assert out.item() == pytest.approx(direct, rel=1e-12)

    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = mul(x, x)
        assert not y.requires_grad
        assert y._parents == ()


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(-50, 50),
    )
)
@settings(max_examples=100, deadline=None)
def test_softmax_rows_sum_to_one(arr):
    out = softmax(Tensor(arr)).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_sinusoidal_rows_distinct(length, half_dim):
    table = sinusoidal_table(length, 2 * half_dim)
    assert table.shape == (length, 2 * half_dim)
    np.testing.assert_array_equal(table[0], np.tile([0.0, 1.0], half_dim))
    diffs = np.abs(table[:, None, :] - table[None, :, :]).max(axis=-1)
    off = diffs[~np.eye(length, dtype=bool)]
    assert off.min() > 1e-9
