import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fdcheck import finite_difference_check
from reference_ops import (
    assert_fused_matches,
    bce_with_logits_mean,
    concat,
    constant,
    conv3x3,
    linear,
    narrow,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
)

from vista import gpm
from vista.config import ModelConfig
from vista.data import ScenarioSpec, synth_generate, uniform_raster
from vista.errors import ConfigError, DataError
from vista.experiments import overfit_config, overfit_dataset
from vista.gpm import (
    encode_gpm_input,
    goal_target,
    gpm_forward_batch,
    heatmap_from_logits,
    init_gpm_params,
    ttst_sample,
)
from vista.model import Model, init_params, stable_seed
from vista.params import ParamStore
from vista.tensor import _node, backward, no_grad
from vista.training import window_constants


# The per-agent TTST that the batched ``ttst_sample`` replaced, kept verbatim
# as the oracle: the batched sampler must reproduce it bit for bit.


def reference_ttst_sample(grid, n_raw: int, k: int, seed: int, kmeans_iters: int = 50):
    """Large-scale categorical sampling over the cells of one (H, W)
    heatmap, reduced to k goals (k, 2) with weights (k,) by at most
    ``kmeans_iters`` K-means iterations with farthest-point seeding;
    deterministic given the seed."""
    if not n_raw >= k >= 1:
        raise ConfigError(f"need n_raw >= k >= 1, got n_raw={n_raw}, k={k}")
    mass = np.asarray(grid, dtype=np.float64)
    total = mass.sum()
    if total <= 0:
        raise DataError("ttst_sample: heatmap has no positive mass")
    h, w = mass.shape
    rng = np.random.default_rng(seed)
    cells = rng.choice(h * w, size=n_raw, p=(mass / total).reshape(-1))
    rows, cols = np.divmod(cells, w)
    jitter = rng.uniform(-0.5, 0.5, size=(n_raw, 2))
    points = np.stack([cols + jitter[:, 0], rows + jitter[:, 1]], axis=1)

    centers, labels = reference_kmeans(points, k, rng, max_iters=kmeans_iters)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    weights = counts / n_raw
    order = np.lexsort((centers[:, 1], centers[:, 0], -weights))
    return centers[order], weights[order]


def reference_kmeans(points: np.ndarray, k: int, rng: np.random.Generator, max_iters: int):
    """Lloyd iterations with greedy farthest-point seeding.

    Ties in seeding and assignment resolve to the lowest index; empty clusters
    reseed to the point farthest from every current center.
    """
    n = len(points)
    centers = np.empty((k, 2))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = points[int(np.argmax(d2))]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        dist = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist, axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = points[mask].mean(axis=0)
            else:
                far = int(np.argmax(dist.min(axis=1)))
                centers[j] = points[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return centers, labels


def reseeds_at(points, k, seed, t):
    """Whether ``reference_kmeans`` reaches Lloyd iteration t >= 2 and
    finds an empty cluster there."""
    (_, before), (centers, labels) = [
        reference_kmeans(points.copy(), k, np.random.default_rng(seed), i) for i in (t - 2, t - 1)
    ]
    nearest = np.argmin(((points[:, None] - centers) ** 2).sum(axis=2), axis=1)
    return not np.array_equal(before, labels) and np.bincount(nearest, minlength=k).min() == 0


def zero_gpm_weights(params, out_bias):
    """Zero every GPM parameter in place, then set the output bias."""
    for name in params.names():
        if name.startswith("gpm."):
            params[name].data[...] = 0.0
    params["gpm.out.b"].data[...] = out_bias


class TestForward:
    def test_output_shape_contract(self):
        cfg = ModelConfig(t_obs=8, t_fut=12, grid=32, n_classes=3)
        params = init_params(cfg, seed=0)
        raster = uniform_raster(32, 3)
        obs = np.random.default_rng(0).uniform(2, 29, size=(8, 2))
        logits = gpm_forward_batch(encode_gpm_input(obs[None], raster, cfg), params)
        hm = heatmap_from_logits(logits.data)
        assert hm.shape == (1, 32, 32)
        assert ((hm >= 0) & (hm <= 1)).all()
        assert (hm > 0).any()

    def test_zero_weights_give_constant_sigmoid_bias(self):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = init_params(cfg, seed=0)
        zero_gpm_weights(params, out_bias=0.3)
        obs = np.full((4, 2), 8.0)
        hm = heatmap_from_logits(gpm_forward_batch(encode_gpm_input(obs[None], None, cfg), params).data)
        expected = 1 / (1 + math.exp(-0.3))
        np.testing.assert_allclose(hm, expected, atol=1e-12)

    def test_sigmoid_matches_closed_form(self):
        z = np.linspace(-30, 30, 101)
        hm = heatmap_from_logits(z.reshape(1, 1, -1))
        np.testing.assert_allclose(hm[0, 0], 1 / (1 + np.exp(-z)), rtol=1e-12)

    def test_bce_gradient_matches_finite_differences(self, tiny_model_config):
        cfg = tiny_model_config
        rng = np.random.default_rng(2)
        arrays = {}
        init_gpm_params(arrays, cfg, rng)
        store = ParamStore(arrays)
        obs = rng.uniform(3, 12, size=(1, cfg.t_obs, 2))
        goal = rng.uniform(3, 12, size=2)

        def loss():
            logits = gpm_forward_batch(encode_gpm_input(obs, None, cfg), store)
            target = goal_target(goal, logits.shape[1:], cfg.goal_sigma)
            return bce_with_logits_mean(narrow(logits, 0), target)

        err = finite_difference_check(store, loss, epsilon=1e-5, max_coords_per_param=4, seed=0)
        assert err < 1e-4

    def test_grid_mismatch_is_data_error(self):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = init_params(cfg, seed=0)
        with pytest.raises(DataError):
            gpm_forward_batch(encode_gpm_input(np.zeros((1, 4, 2)), uniform_raster(10), cfg), params)


def reference_conv3x3(x, w, b):
    """The convolution chain that the one-node ``reference_ops.conv3x3``
    replaced, kept verbatim: two zero-pad concats, nine narrows, the im2col
    concat and a ``linear``."""
    n, h, wd, cin = x.shape
    cout = w.shape[-1]
    zrow = constant(np.zeros((n, 1, wd, cin)))
    xp = concat([zrow, x, zrow], axis=1)
    zcol = constant(np.zeros((n, h + 2, 1, cin)))
    xp = concat([zcol, xp, zcol], axis=2)
    shifts = [
        narrow(xp, (slice(None), slice(di, di + h), slice(dj, dj + wd)))
        for di in range(3)
        for dj in range(3)
    ]
    columns = reshape(concat(shifts, axis=3), (n * h * wd, 9 * cin))
    kernel = reshape(w, (9 * cin, cout))
    return reshape(linear(columns, kernel, b), (n, h, wd, cout))


def reference_gpm_forward(channels, params, conv=conv3x3):
    """The per-layer chain that the one-node ``gpm_forward_batch`` replaced,
    kept as its oracle: a conv and a relu node per convolution, pooling as a
    reshape and a mean, upsampling as two duplicating concats, the skip
    concats and the ``linear`` head. ``conv`` is the one-node im2col
    convolution or the primitive ``reference_conv3x3`` chain."""

    def conv_relu(x, layer):
        return relu(conv(x, params[f"gpm.{layer}.w"], params[f"gpm.{layer}.b"]))

    def pool2(x):
        n, h, w, c = x.shape
        return reduce_mean(reshape(x, (n, h // 2, 2, w // 2, 2, c)), axis=(2, 4))

    def upsample2(x):
        n, h, w, c = x.shape
        col = reshape(x, (n, h, 1, w, 1, c))
        col = concat([col, col], axis=2)
        col = concat([col, col], axis=4)
        return reshape(col, (n, 2 * h, 2 * w, c))

    c1 = conv_relu(constant(channels), "enc1")
    c2 = conv_relu(pool2(c1), "enc2")
    bott = conv_relu(pool2(c2), "bott")
    d2 = conv_relu(concat([upsample2(bott), c2], axis=3), "dec2")
    d1 = conv_relu(concat([upsample2(d2), c1], axis=3), "dec1")
    n, h, w, cd = d1.shape
    logits = linear(reshape(d1, (n * h * w, cd)), params["gpm.out.w"], params["gpm.out.b"])
    return reshape(logits, (n, h, w))


def conv_arrays(rng, n, h, w, c_in, c_out):
    return [
        rng.normal(size=(n, h, w, c_in)),
        rng.normal(size=(3, 3, c_in, c_out)),
        rng.normal(size=c_out),
    ]


# (n, h, w, c_in, c_out): one agent, one input channel, a 1x1 grid, and
# shapes drawn at random.
CONV_SHAPES = [(1, 4, 4, 1, 3), (3, 2, 6, 1, 1), (1, 1, 1, 2, 4)] + [
    tuple(int(v) for v in np.random.default_rng(seed).integers(1, 7, size=5)) for seed in range(4)
]


class TestConvNode:
    """The one-node im2col convolution of ``reference_gpm_forward`` against
    the primitive chain."""

    @pytest.mark.parametrize("shape", CONV_SHAPES, ids=str)
    def test_matches_padded_im2col_chain(self, shape):
        arrays = conv_arrays(np.random.default_rng(sum(shape)), *shape)
        assert_fused_matches(conv3x3, reference_conv3x3, arrays)

    def test_constant_input_matches_chain(self):
        # The first layer's input is a constant: only w and b take gradients.
        x, *arrays = conv_arrays(np.random.default_rng(1), 2, 4, 4, 3, 2)
        assert_fused_matches(
            lambda w, b: conv3x3(constant(x), w, b),
            lambda w, b: reference_conv3x3(constant(x), w, b),
            arrays,
        )

    def test_records_one_node(self):
        # The whole encoder-decoder is one node over the twelve GPM parameters.
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = init_params(cfg, seed=0)
        logits = gpm_forward_batch(encode_gpm_input(np.full((2, 4, 2), 8.0), None, cfg), params)
        gpm_names = [name for name in params.names() if name.startswith("gpm.")]
        assert logits.op == "gpm"
        assert sorted(id(p) for p in logits._parents) == sorted(id(params[n]) for n in gpm_names)


def crowd_window():
    """One 10-agent window on a 32x32 grid and its model config."""
    spec = ScenarioSpec("crossing", n_agents=10, grid=32, randomize=True, seed=4)
    return synth_generate(spec)[0], ModelConfig(grid=32)


def gpm_outputs(forward, params, cfg, scene):
    """Logits and every ``gpm.*`` gradient of the window's summed goal BCE."""
    channels, targets = window_constants(scene, cfg)
    params.zero_grad()
    logits = forward(channels)
    backward(reduce_sum(bce_with_logits_mean(logits, targets, axis=(1, 2))))
    grads = {n: params[n].grad.copy() for n in params.names() if n.startswith("gpm.")}
    return logits.data, grads


def node_and_reference(params, cfg, scene, conv=conv3x3):
    node = gpm_outputs(lambda channels: gpm_forward_batch(channels, params), params, cfg, scene)
    return node, gpm_outputs(lambda c: reference_gpm_forward(c, params, conv), params, cfg, scene)


def grid_four_window():
    """A 2-agent window on the smallest grid, whose bottleneck is one cell."""
    spec = ScenarioSpec("crossing", grid=4, n_frames=7)
    return synth_generate(spec)[0], ModelConfig(t_obs=4, t_fut=3, grid=4)


WINDOWS = [(scene, overfit_config(0).model, 3) for scene in overfit_dataset(0)]


def full_matrix_gpm_forward(channels, params):
    """The recorded goal-module node as it was when it kept each
    convolution's whole im2col matrix for its backward, kept as the
    reference of the node that keeps padded inputs: one matmul per
    convolution, and the weight gradients read the kept matrices."""

    def conv_relu(xp, w, b):
        columns.append(gpm._columns(xp))
        n, hp, wp, _ = xp.shape
        return np.maximum(np.matmul(columns[-1], w.reshape(-1, w.shape[-1])) + b, 0.0).reshape(
            n, hp - 2, wp - 2, -1
        )

    def conv_relu_grads(g, cols, out, w, input_grad=True):
        n, h, wd, cout = out.shape
        gz = (g * (out > 0)).reshape(n * h * wd, cout)
        gx = None
        if input_grad:
            flipped = w[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * cout, -1)
            gx = np.matmul(gpm._columns(gpm._padded(gz.reshape(out.shape))), flipped)
            gx = gx.reshape(n, h, wd, -1)
        return gx, (cols.T @ gz).reshape(w.shape), gz.sum(axis=0)

    weights = tuple(params[f"gpm.{layer}.{p}"] for layer in gpm._LAYERS for p in "wb")
    w1, b1, w2, b2, w3, b3, w4, b4, w5, b5, wo, bo = (p.data for p in weights)
    columns = []
    c1 = conv_relu(gpm._padded(channels), w1, b1)
    c2 = conv_relu(gpm._padded(gpm._pool2(c1)), w2, b2)
    bott = conv_relu(gpm._padded(gpm._pool2(c2)), w3, b3)
    d2 = conv_relu(gpm._upsample2_concat(bott, c2), w4, b4)
    d1 = conv_relu(gpm._upsample2_concat(d2, c1), w5, b5)
    n, h, w, cd = d1.shape
    logits = np.matmul(d1.reshape(n * h * w, cd), wo) + bo

    def bwd(g):
        g = g.reshape(n * h * w, 1)
        g_out = (d1.reshape(n * h * w, cd).T @ g, g.sum(axis=0))
        gx5, *g_dec1 = conv_relu_grads(np.matmul(g, wo.T).reshape(d1.shape), columns[4], d1, w5)
        gx4, *g_dec2 = conv_relu_grads(gpm._upsample2_grad(gx5[..., :cd]), columns[3], d2, w4)
        cb = bott.shape[-1]
        gx3, *g_bott = conv_relu_grads(gpm._upsample2_grad(gx4[..., :cb]), columns[2], bott, w3)
        gx2, *g_enc2 = conv_relu_grads(gpm._pool2_grad(gx3, gx4[..., cb:]), columns[1], c2, w2)
        _, *g_enc1 = conv_relu_grads(gpm._pool2_grad(gx2, gx5[..., cd:]), columns[0], c1, w1, False)
        return (*g_enc1, *g_enc2, *g_bott, *g_dec2, *g_dec1, *g_out)

    return _node(logits.reshape(n, h, w), weights, bwd, "gpm")


class TestGpmNode:
    @pytest.mark.parametrize(
        "scene, cfg, seed", WINDOWS + [(*crowd_window(), 0), (*grid_four_window(), 5)],
        ids=[f"overfit0_w{i}" for i in range(20)] + ["crowd_10x32", "grid_4"],
    )
    def test_matches_per_layer_chain_bitwise(self, scene, cfg, seed):
        params = init_params(cfg, seed=seed)
        (logits, grads), (ref_logits, ref_grads) = node_and_reference(params, cfg, scene)
        assert logits.tobytes() == ref_logits.tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name

    def test_primitive_chain_matches_within_rounding(self):
        # The chain over reference_conv3x3 sums a convolution's input gradient
        # over nine scattered slices, not in one matmul, so its gradients may
        # differ in the last bits; its logits do not.
        scene, cfg, seed = WINDOWS[17]
        params = init_params(cfg, seed=seed)
        (logits, grads), (ref_logits, ref_grads) = node_and_reference(
            params, cfg, scene, conv=reference_conv3x3
        )
        assert logits.tobytes() == ref_logits.tobytes()
        for name, g in grads.items():
            tol = 1e-12 * max(1.0, np.abs(ref_grads[name]).max())
            np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=tol, err_msg=name)

    def test_no_grad_keeps_nothing(self):
        scene, cfg = crowd_window()
        params = init_params(cfg, seed=0)
        obs = scene.positions()[:, : cfg.t_obs]
        channels = encode_gpm_input(obs, scene.raster, cfg)
        with no_grad():
            logits = gpm_forward_batch(channels, params)
        assert logits._bwd is None and logits._parents == () and not logits.requires_grad
        recorded = gpm_forward_batch(channels, params)
        assert logits.data.tobytes() == recorded.data.tobytes()

    @pytest.mark.parametrize("side", [4, 8, 16, 24, 32, 40, 64])
    def test_blocked_inference_matches_recorded_bitwise(self, side):
        # The no-grad logits against the recorded ones. Agent counts run
        # 1-16, capped at 16384 input rows because the recorded forward
        # keeps every layer's padded input; odd counts at side 24 and 9-11
        # at side 16 leave a remainder for the last block.
        cfg = ModelConfig(grid=side)
        params = init_params(cfg, seed=side)
        rng = np.random.default_rng(side)
        for n in range(1, min(16, 16384 // side**2) + 1):
            channels = rng.normal(size=(n, side, side, cfg.n_classes + cfg.t_obs))
            recorded = gpm_forward_batch(channels, params).data
            with no_grad():
                blocked = gpm_forward_batch(channels, params).data
            assert blocked.tobytes() == recorded.tobytes(), (side, n)

    @pytest.mark.parametrize("side", [4, 8, 16, 24, 32, 40, 64])
    def test_blocked_conv_matches_one_matmul_bitwise(self, side):
        # Each convolution, forward (its kernel) or input gradient (the
        # flipped kernel; enc1 has none), against one matmul over the whole
        # im2col matrix. Agent counts run 1-16, capped at 2^22 values in
        # that matrix; odd counts at side 24 and 9-11 at side 16 leave a
        # remainder for the last block.
        params = init_params(ModelConfig(grid=side), seed=side)
        rng = np.random.default_rng(side)
        for layer, scale in {"enc1": 1, "enc2": 2, "bott": 4, "dec2": 2, "dec1": 1}.items():
            w = params[f"gpm.{layer}.w"].data
            h = side // scale
            for kernel in [w] if layer == "enc1" else [w, w[::-1, ::-1].transpose(0, 1, 3, 2)]:
                c = kernel.shape[2]
                for n in range(1, min(16, 2**22 // (h * h * 9 * c)) + 1):
                    xp = gpm._padded(rng.normal(size=(n, h, h, c)))
                    whole = np.matmul(gpm._columns(xp), kernel.reshape(9 * c, -1))
                    assert gpm._conv(xp, kernel).tobytes() == whole.tobytes(), (layer, c, h, n)

    @pytest.mark.parametrize(
        "scene, cfg, seed", [WINDOWS[3], (*crowd_window(), 0), (*grid_four_window(), 5)],
        ids=["overfit0_w3", "crowd_10x32", "grid_4"],
    )
    def test_gradients_match_full_matrix_node_bitwise(self, scene, cfg, seed):
        params = init_params(cfg, seed=seed)
        logits, grads = gpm_outputs(lambda c: gpm_forward_batch(c, params), params, cfg, scene)
        ref_logits, ref_grads = gpm_outputs(
            lambda c: full_matrix_gpm_forward(c, params), params, cfg, scene
        )
        assert logits.tobytes() == ref_logits.tobytes()
        for name, g in grads.items():
            assert g.tobytes() == ref_grads[name].tobytes(), name

    def test_heatmaps_peak_memory(self):
        # One im2col matrix for all ten agents would be 10240 x 288 float64
        # (23.6 MB) at dec1 alone.
        scene, cfg = crowd_window()
        model = Model(cfg, init_params(cfg, seed=0))
        model.heatmaps(scene)
        tracemalloc.start()
        try:
            model.heatmaps(scene)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestTTST:
    def test_single_peak_k1_centroid_near_peak(self):
        grid = np.zeros((8, 8))
        grid[5, 2] = 1.0
        [goals], [weights] = ttst_sample(grid[None], n_raw=500, k=1, seeds=[0])
        assert goals.shape == (1, 2)
        np.testing.assert_allclose(goals[0], [2.0, 5.0], atol=0.5)
        np.testing.assert_array_equal(weights, [1.0])

    def test_two_separated_peaks_k2(self):
        grid = np.zeros((16, 16))
        grid[2, 2] = 0.5
        grid[13, 13] = 0.5
        [goals], [weights] = ttst_sample(grid[None], n_raw=2000, k=2, seeds=[1])
        goals = goals[np.argsort(goals[:, 0])]
        np.testing.assert_allclose(goals[0], [2.0, 2.0], atol=1.0)
        np.testing.assert_allclose(goals[1], [13.0, 13.0], atol=1.0)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=0.05)

    def test_k_equals_n_raw_uniform_weights(self):
        grid = np.ones((6, 6))
        _, [weights] = ttst_sample(grid[None], n_raw=12, k=12, seeds=[3])
        np.testing.assert_allclose(weights, np.full(12, 1 / 12), atol=1e-12)

    def test_deterministic_given_seed(self):
        grid = np.random.default_rng(0).uniform(size=(10, 10))
        a_goals, a_weights = ttst_sample(grid[None], 300, 5, seeds=[7])
        b_goals, b_weights = ttst_sample(grid[None], 300, 5, seeds=[7])
        np.testing.assert_array_equal(a_goals, b_goals)
        np.testing.assert_array_equal(a_weights, b_weights)

    def test_goals_within_grid_bounds(self):
        grid = np.random.default_rng(1).uniform(size=(9, 9))
        [goals], [weights] = ttst_sample(grid[None], 1000, 20, seeds=[2])
        assert (goals >= -0.5).all() and (goals <= 8.5).all()
        assert weights.sum() == pytest.approx(1.0)

    def test_all_zero_heatmap_errors(self):
        with pytest.raises(DataError, match="no positive mass"):
            ttst_sample(np.zeros((1, 4, 4)), 100, 2, seeds=[0])

    def test_bad_counts(self):
        with pytest.raises(ConfigError):
            ttst_sample(np.ones((1, 4, 4)), 5, 10, seeds=[0])
        with pytest.raises(ValueError):
            ttst_sample(np.ones((2, 4, 4)), 5, 2, seeds=[0])

    def test_kmeans_iters_bounds_lloyd_iterations(self):
        # On a flat heatmap the centres keep moving after the first Lloyd
        # update, so stopping after one iteration gives other goals.
        grids = np.ones((1, 16, 16))
        one, _ = ttst_sample(grids, 400, 6, seeds=[5], kmeans_iters=1)
        default, _ = ttst_sample(grids, 400, 6, seeds=[5])
        assert np.abs(one - default).max() > 1e-3
        np.testing.assert_array_equal(
            ttst_sample(grids, 400, 6, seeds=[5], kmeans_iters=50)[0], default
        )

    def test_model_config_kmeans_iters_reaches_sampler(self, tiny_scene):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16, n_raw_samples=400)
        model = Model(cfg, init_params(cfg, seed=0))
        short = Model(replace(cfg, kmeans_iters=1), model.params)
        full_goals, _ = model.sample_goals(tiny_scene, 6, seed=2)
        short_goals, _ = short.sample_goals(tiny_scene, 6, seed=2)
        for a, b in zip(full_goals, short_goals):
            assert np.abs(a - b).max() > 1e-3
        with pytest.raises(ConfigError, match="kmeans_iters"):
            replace(cfg, kmeans_iters=0).validate()


class TestTTSTMatchesReference:
    SEEDS = (3, 1 << 31, 17, 123456, 9)

    @staticmethod
    def window_grids():
        """A sharp peak, two peaks, a flat map, noise and a blob: agents
        whose K-means settles after different numbers of iterations."""
        peak = np.zeros((12, 12))
        peak[3, 8] = 1.0
        two = np.zeros((12, 12))
        two[1, 1] = two[10, 9] = 0.5
        yy, xx = np.mgrid[:12, :12]
        blob = np.exp(-((xx - 6.3) ** 2 + (yy - 4.1) ** 2) / 8.0)
        noise = np.random.default_rng(11).uniform(size=(12, 12))
        return np.stack([peak, two, np.ones((12, 12)), noise, blob])

    @pytest.mark.parametrize("kmeans_iters", [1, 50])
    def test_every_agent_matches_reference_bitwise(self, kmeans_iters):
        grids = self.window_grids()
        goals, weights = ttst_sample(grids, 400, 6, list(self.SEEDS), kmeans_iters)
        for grid, seed, g, w in zip(grids, self.SEEDS, goals, weights):
            ref_goals, ref_weights = reference_ttst_sample(grid, 400, 6, seed, kmeans_iters)
            np.testing.assert_array_equal(g, ref_goals)
            np.testing.assert_array_equal(w, ref_weights)

    def test_window_agents_settle_at_different_iterations(self):
        # The premise of the bitwise test: agents leave the batched Lloyd
        # loop at different iterations while others keep going.
        def settled_after(grid, seed):
            final, _ = reference_ttst_sample(grid, 400, 6, seed)
            for iters in range(1, 51):
                early, _ = reference_ttst_sample(grid, 400, 6, seed, iters)
                if np.array_equal(early, final):
                    return iters

        counts = {settled_after(g, s) for g, s in zip(self.window_grids(), self.SEEDS)}
        assert len(counts) >= 3

    def test_duplicate_points_reseed_matches_reference(self):
        # Three distinct locations, repeated: farthest-point seeding picks
        # each once and then repeats point 0. Identical centres leave all
        # but the lowest-index one with an empty cluster, which is reseeded.
        # The second set has no empty cluster, so one batch mixes both paths.
        dup = np.repeat(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 4.0]]), [7, 4, 2], axis=0)
        spread = np.random.default_rng(0).uniform(0, 9, size=(13, 2))
        points = np.stack([dup, spread])
        seeds = (4, 5)
        seeded, _ = reference_kmeans(dup.copy(), 5, np.random.default_rng(4), max_iters=0)
        assert len(np.unique(seeded, axis=0)) == 3
        centers, labels = gpm._kmeans(
            points, 5, [np.random.default_rng(s) for s in seeds], max_iters=50
        )
        for i, seed in enumerate(seeds):
            ref_centers, ref_labels = reference_kmeans(
                points[i].copy(), 5, np.random.default_rng(seed), max_iters=50
            )
            np.testing.assert_array_equal(centers[i], ref_centers)
            np.testing.assert_array_equal(labels[i], ref_labels)

    def test_lattice_ties_match_reference(self):
        # On a 0.1-spaced lattice many points sit (up to rounding) midway
        # between two centres, so only the reference's exact float
        # arithmetic for the squared distance gives the reference's labels.
        xs, ys = np.meshgrid(np.arange(10) * 0.1 + 0.3, np.arange(10) * 0.7 + 0.1)
        lattice = np.stack([xs.ravel(), ys.ravel()], axis=1)
        seeds = range(6)
        centers, labels = gpm._kmeans(
            np.stack([lattice] * len(seeds)), 7,
            [np.random.default_rng(s) for s in seeds], max_iters=50,
        )
        for i, seed in enumerate(seeds):
            ref_centers, ref_labels = reference_kmeans(
                lattice.copy(), 7, np.random.default_rng(seed), max_iters=50
            )
            np.testing.assert_array_equal(centers[i], ref_centers)
            np.testing.assert_array_equal(labels[i], ref_labels)

    def test_random_cases_match_reference_bitwise(self):
        # The batched assignment against the dense reference, set by set, over
        # 1-10 agents, k in {1, n_raw, random}, 1 or 50 or a random number of
        # iterations, and three kinds of points: uniform, a 0.1 lattice full
        # of exact ties, and a few repeated locations. Those repeats make
        # seeding repeat a centre, so a set reseeds at iteration 2 beside
        # sets that do not.
        rng = np.random.default_rng(8)
        late_reseeds = 0
        for case in range(54):
            a, n = int(rng.integers(1, 11)), int(rng.integers(2, 160))
            k = (1, n, int(rng.integers(1, min(n, 20) + 1)))[case % 3]
            iters = (1, 50, int(rng.integers(1, 51)))[case // 3 % 3]
            kind = case // 9 % 3
            if kind == 0:
                points = rng.uniform(-0.5, 23.5, size=(a, n, 2))
            elif kind == 1:
                points = np.round(rng.uniform(0, 2, size=(a, n, 2)), 1)
            else:
                spots = np.round(rng.uniform(0, 5, size=(a, 4, 2)), 1)
                points = spots[np.arange(a)[:, None], rng.integers(0, 4, size=(a, n))]
                points[:, :3] = rng.uniform(0, 5, size=(a, min(n, 3), 2))
            seeds = rng.integers(0, 1 << 31, size=a)
            centers, labels = gpm._kmeans(
                points.copy(), k, [np.random.default_rng(s) for s in seeds], iters
            )
            for i, seed in enumerate(seeds):
                ref_centers, ref_labels = reference_kmeans(
                    points[i].copy(), k, np.random.default_rng(seed), iters
                )
                np.testing.assert_array_equal(centers[i], ref_centers)
                np.testing.assert_array_equal(labels[i], ref_labels)
                if kind == 2 and iters > 2 and a > 1:
                    late_reseeds += reseeds_at(points[i], k, seed, 2)
        assert late_reseeds >= 3

    @seed(26)
    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_score_assignment_matches_reference_bitwise(self, data):
        # The margin-screened score assignment against the dense reference,
        # set by set, on four kinds of points: uniform, a 0.1 lattice full of
        # exact ties, a few repeated spots, and a 1e-3 spread around an
        # offset of 1e5-1e6, where the margin sends every point to the
        # squared distances.
        a, n = data.draw(st.integers(1, 10)), data.draw(st.integers(2, 300))
        k = data.draw(st.sampled_from([1, n]) | st.integers(1, min(n, 20)))
        iters = data.draw(st.integers(1, 50))
        kind = data.draw(st.sampled_from(["uniform", "lattice", "spots", "far"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "uniform":
            points = rng.uniform(-0.5, 23.5, size=(a, n, 2))
        elif kind == "lattice":
            points = np.round(rng.uniform(0, 2, size=(a, n, 2)), 1)
        elif kind == "spots":
            spots = np.round(rng.uniform(0, 5, size=(a, 4, 2)), 1)
            points = spots[np.arange(a)[:, None], rng.integers(0, 4, size=(a, n))]
        else:
            offsets = rng.uniform(1e5, 1e6, size=(a, 1, 2))
            points = offsets + rng.uniform(0, 1e-3, size=(a, n, 2))
        seeds = rng.integers(0, 1 << 31, size=a)
        centers, labels = gpm._kmeans(
            points.copy(), k, [np.random.default_rng(s) for s in seeds], iters
        )
        for i, s in enumerate(seeds):
            ref_centers, ref_labels = reference_kmeans(
                points[i].copy(), k, np.random.default_rng(s), iters
            )
            np.testing.assert_array_equal(centers[i], ref_centers)
            np.testing.assert_array_equal(labels[i], ref_labels)

    def test_uniform_points_never_need_squared_distances(self, monkeypatch):
        # Uniform points have no ties: the margin must settle every label
        # from the scores, or a margin widened by mistake would run the
        # squared distances everywhere and still pass the bitwise tests.
        k, exact = 20, []
        real = gpm._sq_dist

        def counting(px, py, centers):
            exact.append(centers.shape == (k, 2))
            return real(px, py, centers)

        monkeypatch.setattr(gpm, "_sq_dist", counting)
        points = np.random.default_rng(5).uniform(-0.5, 23.5, size=(3, 2000, 2))
        centers, labels = gpm._kmeans(
            points.copy(), k, [np.random.default_rng(s) for s in range(3)], 50
        )
        assert exact and not any(exact)
        for i in range(3):
            ref_centers, ref_labels = reference_kmeans(points[i], k, np.random.default_rng(i), 50)
            np.testing.assert_array_equal(centers[i], ref_centers)
            np.testing.assert_array_equal(labels[i], ref_labels)

    def test_model_sample_goals_matches_reference(self, tiny_scene):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16, n_raw_samples=400)
        model = Model(cfg, init_params(cfg, seed=0))
        goals, weights = model.sample_goals(tiny_scene, 6, seed=2)
        grids = model.heatmaps(tiny_scene)
        for i, agent_id in enumerate(tiny_scene.agent_ids):
            seed = stable_seed(2, tiny_scene.key(), agent_id)
            ref_goals, ref_weights = reference_ttst_sample(grids[i], 400, 6, seed)
            np.testing.assert_array_equal(goals[i], ref_goals)
            np.testing.assert_array_equal(weights[i], ref_weights)


def logit(p):
    return np.log(p) - np.log1p(-p)


class TestGoalLoss:
    """The goal BCE of ``window_loss_graph``: ``bce_with_logits_mean`` against
    the ``goal_target`` heatmap."""

    def test_self_target_is_entropy_floor(self):
        target = 0.05 + 0.9 * goal_target((2.1, 1.4), (6, 6), sigma=1.5)
        floor = -(target * np.log(target) + (1 - target) * np.log1p(-target)).mean()
        at_target = bce_with_logits_mean(logit(target), target).item()
        assert at_target == pytest.approx(floor, rel=1e-12)
        moved = logit(target) + np.random.default_rng(0).normal(scale=0.1, size=(6, 6))
        assert bce_with_logits_mean(moved, target).item() > at_target

    def test_flipped_prediction_is_worse_than_floor(self):
        target = 0.05 + 0.9 * goal_target((2.1, 1.4), (6, 6), sigma=1.5)
        floor = bce_with_logits_mean(logit(target), target).item()
        worse = bce_with_logits_mean(logit(1.0 - target), target).item()
        assert worse > floor

    def test_hand_two_by_two_case(self):
        pred = np.array([[0.9, 0.1], [0.1, 0.1]])
        target = np.array([[1.0, 0.0], [0.0, 0.0]])
        expected = -(math.log(0.9) + 3 * math.log(0.9)) / 4
        assert bce_with_logits_mean(logit(pred), target).item() == pytest.approx(expected, rel=1e-12)
        # axis=(1, 2) gives one mean per stacked map, as window_loss_graph uses it.
        per_map = bce_with_logits_mean(
            np.stack([logit(pred), logit(1.0 - pred)]), np.stack([target, target]), axis=(1, 2)
        ).data
        assert per_map.shape == (2,)
        assert per_map[0] == pytest.approx(expected, rel=1e-12)
        assert per_map[1] == pytest.approx(-(math.log(0.1) + 3 * math.log(0.1)) / 4, rel=1e-12)

    def test_target_peak_is_one(self):
        target = goal_target((3.0, 3.0), (8, 8), sigma=1.5)
        assert target.max() == pytest.approx(1.0)
        assert target.min() > 0
