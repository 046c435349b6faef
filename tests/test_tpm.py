import functools
from dataclasses import replace

import numpy as np
import pytest

from fdcheck import record_activations
from reference_ops import (
    add,
    assert_fused_matches,
    concat,
    constant,
    embed_tokens,
    goal_feature,
    layer_norm,
    linear,
    mul,
    narrow,
    relu,
    reshape,
    sub,
)
from test_attention import set_random_biases

from vista import tpm, training
from vista.attention import multi_head_attention
from vista.cli import _read_prediction, main
from vista.config import ModelConfig, TrainConfig
from vista.data import AgentTrack, Scene, save_trajectories
from vista.errors import AlignmentError, ConfigError, DataError, DivergenceError
from vista.experiments import overfit_dataset
from vista.gpm import ttst_sample
from vista.model import Model, init_params, stable_seed
from vista.params import ParamStore
from vista.tensor import as_tensor, backward, no_grad, sinusoidal_table
from vista.tpm import (
    RolloutResult,
    load_prediction_txt,
    rollout,
    save_prediction_txt,
    save_trace_json,
)
from vista.training import window_loss_graph


def scene_from_positions(positions, agent_ids=None):
    positions = np.asarray(positions, dtype=np.float64)
    n, t = positions.shape[:2]
    ids = list(range(n)) if agent_ids is None else agent_ids
    tracks = [AgentTrack(ids[i], positions[i], np.arange(t)) for i in range(n)]
    return Scene("test", tracks)


def fixed_goals(scene, k, spread=0.0):
    """(N, k, 2) goals: each agent's last position, shifted along the
    diagonal by k evenly spaced steps from 0 to ``spread``."""
    goals = np.repeat(scene.positions()[:, -1, None, :], k, axis=1)
    return goals + np.linspace(0, spread, k)[:, None] if spread else goals


def predict_with_goals(scene, goals, params, cfg, capture_trace=False):
    """``Model.predict`` with TTST replaced by the fixed goals (N, k, 2)."""
    model = Model(cfg, params)
    k = goals.shape[1]
    model.sample_goals = lambda *_: (goals, np.full(goals.shape[:2], 1.0 / k))
    return model.predict(scene, k=k, seed=0, capture_trace=capture_trace)


@pytest.fixture
def cfg():
    return ModelConfig(t_obs=4, t_fut=3, grid=16)


@pytest.fixture
def params(cfg):
    return init_params(cfg, seed=0)


class TestHybridPositionalEncoding:
    def test_zero_token_at_t0_is_sin_cos_row(self, cfg, params):
        # A point at the anchor embeds to the zero-initialized bias.
        params["tpm.pe.learn"].data[:] = 0.0
        out = embed_tokens(np.zeros((1, 1, 2)), np.zeros(2), np.array([0]), params, cfg)
        expected = np.tile([0.0, 1.0], cfg.d_model // 2)
        np.testing.assert_allclose(out.data[0, 0], expected, atol=1e-15)

    def test_equal_tokens_at_different_times_differ(self, cfg, params):
        out = embed_tokens(np.ones((1, 2, 2)), np.zeros(2), np.array([0, 5]), params, cfg)
        assert np.abs(out.data[0, 0] - out.data[0, 1]).max() > 1e-6

    def test_additivity(self, cfg, params):
        # Two agents share the per-index terms.
        rng = np.random.default_rng(0)
        points = rng.normal(size=(2, 3, 2))
        e = np.matmul(points, params["tpm.embed.w"].data)
        idx = np.array([1, 2, 6])
        with_e = embed_tokens(points, np.zeros(2), idx, params, cfg).data
        with_zero = embed_tokens(np.zeros_like(points), np.zeros(2), idx, params, cfg).data
        np.testing.assert_allclose(with_e - with_zero, e, atol=1e-12)
        np.testing.assert_array_equal(with_zero[0], with_zero[1])


# The token embedding and decoder chains that the one-node ``embed_tokens``
# and the rollout node replaced, kept verbatim as their references.


def embed_positions(positions, params: ParamStore):
    """Affine map of (..., 2) coordinates into the token space."""
    return linear(positions, params["tpm.embed.w"], params["tpm.embed.b"])


def hybrid_positional_encoding(tokens, time_indices, params: ParamStore, config: ModelConfig):
    """token_t + sinusoidal(t) + learnable(t) over tokens (..., L, d); the
    per-index terms broadcast across the leading axes."""
    idx = np.asarray(time_indices, dtype=np.int64)
    if idx.min() < 0 or idx.max() > config.t_total:
        raise ConfigError(
            f"time index out of positional-table range 0..{config.t_total}: {idx}"
        )
    fixed = constant(sinusoidal_table(config.t_total + 1, config.d_model)[idx])
    return add(tokens, add(fixed, narrow(params["tpm.pe.learn"], (idx,))))


def reference_decode_step(feature, last_pos, params: ParamStore):
    hidden = relu(linear(feature, params["tpm.dec.w1"], params["tpm.dec.b1"]))
    delta = linear(hidden, params["tpm.dec.w2"], params["tpm.dec.b2"])
    return add(reshape(last_pos, delta.shape), delta)


def embed_leaves(w, b, learn):
    return {"tpm.embed.w": w, "tpm.embed.b": b, "tpm.pe.learn": learn}


def embed_arrays(rng, points_shape, cfg):
    return [
        rng.normal(size=points_shape),
        rng.normal(size=(2, cfg.d_model)),
        rng.normal(size=cfg.d_model),
        rng.normal(size=(cfg.t_total + 1, cfg.d_model)),
    ]


def rollout_and_grads(run, scene, goals, params, cfg, n_steps=None):
    """The canonical positions of ``run`` (``rollout`` or a reference of
    it) and every parameter's gradient for a fixed random upstream
    gradient."""
    params.zero_grad()
    positions = run(scene, goals, params, cfg, n_steps=n_steps).positions
    backward(positions, seed=np.random.default_rng(0).normal(size=positions.shape))
    return positions.data, {name: p.grad.copy() for name, p in params.items()}


def assert_grads_match(grads, ref_grads):
    """Each gradient within 1e-12 of the largest entry of its reference."""
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        tol = 1e-12 * max(1.0, np.abs(ref).max())
        np.testing.assert_allclose(grads[name], ref, rtol=0, atol=tol, err_msg=name)


class TestFusedNodes:
    """``embed_tokens`` and the rollout node's decoder against the chains
    they replace: the forward bit for bit, gradients within 1e-12 of the
    largest."""

    @pytest.mark.parametrize("rows, length", [(1, 1), (1, 8), (3, 4), (5, 7)])
    def test_sequence_embedding_matches_chain(self, cfg, rows, length):
        rng = np.random.default_rng(rows * 10 + length)
        anchor = rng.normal(size=2)
        idx = np.arange(length)

        def chain(seq, *leaves):
            tokens = embed_positions(sub(seq, constant(anchor)), embed_leaves(*leaves))
            return hybrid_positional_encoding(tokens, idx, embed_leaves(*leaves), cfg)

        assert_fused_matches(
            lambda seq, *leaves: embed_tokens(seq, anchor, idx, embed_leaves(*leaves), cfg),
            chain,
            embed_arrays(rng, (rows, length, 2), cfg),
        )

    @pytest.mark.parametrize("lead", [(), (1,), (4,)], ids=str)
    @pytest.mark.parametrize("n", [1, 3])
    def test_goal_token_embedding_matches_chain(self, cfg, lead, n):
        # The goal token embeds at index t_total, one row per agent, and is
        # reshaped to a one-token sequence after the embedding.
        rng = np.random.default_rng(len(lead) * 10 + n)
        anchor = rng.normal(size=2)
        rows = int(np.prod(lead, dtype=int)) * n
        idx = np.array([cfg.t_total])

        def chain(goals, *leaves):
            tokens = embed_positions(sub(goals, constant(anchor)), embed_leaves(*leaves))
            tokens = reshape(tokens, (rows, 1, cfg.d_model))
            return hybrid_positional_encoding(tokens, idx, embed_leaves(*leaves), cfg)

        def fused(goals, *leaves):
            tokens = embed_tokens(goals, anchor, idx, embed_leaves(*leaves), cfg)
            return reshape(tokens, (rows, 1, cfg.d_model))

        assert_fused_matches(fused, chain, embed_arrays(rng, lead + (n, 2), cfg))

    @pytest.mark.parametrize("lead, n, d", [((), 1, 4), ((), 3, 32), ((1,), 2, 8), ((5,), 3, 6)])
    def test_decoder_matches_chain(self, lead, n, d):
        # A one-step rollout against ``reference_rollout``, whose decoder is
        # the linear-relu-linear chain.
        cfg = ModelConfig(t_obs=3, t_fut=2, grid=16, d_model=d, n_heads=2)
        params = init_params(cfg, seed=n * d)
        rng = np.random.default_rng(n * d)
        scene = scene_from_positions(rng.uniform(1, 14, size=(n, cfg.t_total, 2)))
        goals = rng.uniform(1, 14, size=lead + (n, 2))
        with record_activations() as fused_trace:
            out, grads = rollout_and_grads(rollout, scene, goals, params, cfg, n_steps=1)
        with record_activations() as chain_trace:
            ref_out, ref_grads = rollout_and_grads(
                reference_rollout, scene, goals, params, cfg, n_steps=1
            )
        assert out.tobytes() == ref_out.tobytes()
        assert_grads_match(grads, ref_grads)
        # The decoder's relu counts its active units like the relu node did.
        assert fused_trace == chain_trace and len(fused_trace) == 1


def per_step_fusion(tokens, goal_tokens, params, config):
    """The fusion before ``goal_feature``: temporal attention of the last of
    the tokens (N, L, d) over all of them, plus the one-key cross-attention
    to the goal tokens (N, 1, d) and its layer norm, rebuilt at every
    rollout step."""
    n, length, d = tokens.shape
    query = narrow(tokens, (slice(None), slice(length - 1, length)))
    t_last, _ = multi_head_attention(
        query, tokens, tokens, config.n_heads, params, "tpm.fusion.self0"
    )
    if goal_tokens is None:
        return reshape(t_last, (n, d))
    z_last, _ = multi_head_attention(
        t_last, goal_tokens, goal_tokens, config.n_heads, params, "tpm.fusion.cross"
    )
    normed = add(
        mul(layer_norm(z_last), params["tpm.fusion.norm.gamma"]), params["tpm.fusion.norm.beta"]
    )
    return add(reshape(normed, (n, d)), reshape(t_last, (n, d)))


class TestFusion:
    def test_matches_block_composition(self, cfg, params):
        # ``reference_fusion``, the oracle of the rollout node's fusion, is
        # the paper's block composition: temporal self-attention of the last
        # token plus the layer-normed cross-attention to the goal token.
        rng = np.random.default_rng(3)
        history = constant(rng.normal(size=(1, 5, cfg.d_model)))
        goal = constant(rng.normal(size=(1, 1, cfg.d_model)))
        fused = reference_fusion(history, goal_feature(goal, params), params, cfg)
        assert fused.shape == (1, cfg.d_model)

        query = constant(history.data[:, -1:])
        t_last, _ = multi_head_attention(
            query, history, history, cfg.n_heads, params, "tpm.fusion.self0"
        )
        z, cross_attn = multi_head_attention(
            t_last, goal, goal, cfg.n_heads, params, "tpm.fusion.cross"
        )
        np.testing.assert_array_equal(cross_attn, np.ones((cfg.n_heads, 1, 1, 1)))
        normed = layer_norm(z).data * params["tpm.fusion.norm.gamma"].data + params[
            "tpm.fusion.norm.beta"
        ].data
        np.testing.assert_array_equal(fused.data, (normed + t_last.data).reshape(1, -1))

    def test_hoisted_goal_term_matches_per_step_fusion(self, three_agent_scene, monkeypatch):
        # The rollout node adds the goal term computed once per rollout; the
        # reference recursion driven with ``per_step_fusion`` rebuilds the
        # cross-attention to the goal token at every step.
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = init_params(cfg, seed=2)
        tcfg = TrainConfig()

        def loss_and_grads():
            params.zero_grad()
            total, _, _ = window_loss_graph(params, cfg, tcfg, three_agent_scene)
            backward(total)
            return total.item(), {n: params[n].grad.copy() for n in params.names()}

        total, grads = loss_and_grads()
        monkeypatch.setattr(
            training,
            "rollout",
            functools.partial(
                reference_rollout, fusion=per_step_fusion, goal_term=lambda tokens, _: tokens
            ),
        )
        ref_total, ref_grads = loss_and_grads()
        assert total == ref_total
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-12, err_msg=name)

    def test_single_history_token_self_attends_fully(self, cfg, params):
        token = np.random.default_rng(4).normal(size=(1, cfg.d_model))
        t_seq, attn = multi_head_attention(
            constant(token), constant(token), constant(token),
            cfg.n_heads, params, "tpm.fusion.self0",
        )
        np.testing.assert_array_equal(attn, np.ones((cfg.n_heads, 1, 1)))

    @pytest.mark.parametrize("lead, n", [((), 1), ((), 3), ((1,), 3), ((4,), 3)], ids=str)
    def test_goal_term_matches_chain(self, lead, n):
        # The rollout node's goal term and its gradients against
        # ``goal_feature`` over ``embed_tokens``, the goal term of
        # ``reference_rollout``: the forward bit for bit, and the gradients
        # bit for bit for one goal set.
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = init_params(cfg, seed=n)
        rng = np.random.default_rng(len(lead) * 10 + n)
        for name in ("tpm.embed.b", "tpm.pe.learn", "tpm.fusion.norm.gamma", "tpm.fusion.norm.beta"):
            params[name].data[...] = rng.normal(size=params[name].shape)
        set_random_biases(params, "tpm.fusion.cross", rng)
        goals, anchor = rng.uniform(1, 14, size=lead + (n, 2)), rng.normal(size=2)
        names = [f"tpm.fusion.cross.{w}" for w in ("wv", "bv", "wo", "bo")]
        names += ["tpm.fusion.norm.gamma", "tpm.fusion.norm.beta"]
        goal_params = tuple(params[name] for name in names)
        goal, saved = tpm._goal_term(goals, anchor, goal_params, params, cfg)
        params.zero_grad()
        tokens = embed_tokens(goals, anchor, [cfg.t_total], params, cfg)
        ref = goal_feature(reshape(tokens, (goal.shape[0], 1, cfg.d_model)), params)
        assert goal.tobytes() == ref.data.tobytes()

        g = rng.normal(size=goal.shape)
        backward(ref, seed=g)
        g_w, g_b, g_goal = tpm._goal_term_grads(g, saved, goal_params)
        g_learn = np.zeros(params["tpm.pe.learn"].shape)
        g_learn[cfg.t_total] = g_b
        names = ["tpm.embed.w", "tpm.embed.b", "tpm.pe.learn"] + names
        for name, grad in zip(names, [g_w, g_b, g_learn, *g_goal], strict=True):
            ref_grad = params[name].grad
            if lead > (1,):  # the sums over B x N rows run in another order
                tol = 1e-12 * max(1.0, np.abs(ref_grad).max())
                np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=tol, err_msg=name)
            else:
                assert grad.tobytes() == ref_grad.tobytes(), name

    def test_goal_gradient_is_nonzero(self, cfg, params, tiny_scene):
        # The rollout node returns a gradient to its goal term, which reaches
        # every parameter the goal term reads.
        _, grads = rollout_and_grads(
            rollout, tiny_scene, tiny_scene.positions()[:, -1, :], params, cfg
        )
        for name in ("wv", "bv", "wo", "bo"):
            assert np.abs(grads[f"tpm.fusion.cross.{name}"]).max() > 1e-8, name
        for name in ("gamma", "beta"):
            assert np.abs(grads[f"tpm.fusion.norm.{name}"]).max() > 1e-8, name


def social_attention(features, params: ParamStore, config: ModelConfig):
    """Multi-head self-attention across agent tokens (N, d) or (B, N, d),
    agents attending within their batch row, and the head-averaged
    ([B,] N, N) attention matrix: the social step of ``reference_rollout``."""
    feats = as_tensor(features)
    n = feats.shape[-2]
    if not config.use_social:
        return feats, np.broadcast_to(np.eye(n), feats.shape[:-1] + (n,))
    out, heads = multi_head_attention(
        feats, feats, feats, config.n_heads, params, "tpm.social0"
    )
    return out, heads.mean(axis=0)


class TestSocialAttention:
    """Social attention inside the rollout node, seen through its traces."""

    def test_single_agent_identity_weight(self, cfg, params):
        pos = np.random.default_rng(6).uniform(1, 14, size=(1, cfg.t_total, 2))
        result = rollout(scene_from_positions(pos), pos[:, -1], params, cfg, capture_trace=True)
        np.testing.assert_array_equal(result.traces, np.ones((cfg.t_fut, 1, 1)))
        assert result.trajectories.shape == (1, cfg.t_fut, 2)

    def test_identical_agents_attend_half_half(self, cfg, params):
        pos = np.tile(np.random.default_rng(7).uniform(1, 14, size=(cfg.t_total, 2)), (2, 1, 1))
        result = rollout(scene_from_positions(pos), pos[:, -1], params, cfg, capture_trace=True)
        np.testing.assert_allclose(result.traces, np.full((cfg.t_fut, 2, 2), 0.5), atol=1e-12)

    def test_permutation_conjugates_attention(self, cfg, params):
        # The bare block is equivariant up to float summation order; rollout
        # gets bit-exact equivariance by canonicalizing the agent order.
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(4, cfg.d_model))
        perm = np.array([2, 0, 3, 1])
        out, attn = social_attention(constant(feats), params, cfg)
        out_p, attn_p = social_attention(constant(feats[perm]), params, cfg)
        np.testing.assert_allclose(out_p.data, out.data[perm], atol=1e-12)
        np.testing.assert_allclose(attn_p, attn[perm][:, perm], atol=1e-12)

    def test_disabled_social_gives_identity_matrix(self, cfg, tiny_scene):
        cfg_ns = replace(cfg, use_social=False)
        params = init_params(cfg_ns, seed=0)
        result = rollout(
            tiny_scene, tiny_scene.positions()[:, -1], params, cfg_ns, capture_trace=True
        )
        n = tiny_scene.n_agents
        np.testing.assert_array_equal(result.traces, np.broadcast_to(np.eye(n), (cfg.t_fut, n, n)))
        assert not any(name.startswith("tpm.social0") for name in params.names())


def decoder_of(params):
    return tuple(params[f"tpm.dec.{name}"] for name in ("w1", "b1", "w2", "b2"))


class TestDecodeStep:
    """The decoder arithmetic of the rollout node, ``tpm._decode``."""

    def test_zero_mlp_keeps_position(self, cfg, params):
        for p in decoder_of(params):
            p.data[:] = 0
        out, _, _ = tpm._decode(np.ones((1, cfg.d_model)), np.array([3.0, -2.0]), decoder_of(params))
        np.testing.assert_array_equal(out, [[3.0, -2.0]])

    def test_displacement_independent_of_position(self, cfg, params):
        feat = np.random.default_rng(10).normal(size=(1, cfg.d_model))
        a, _, _ = tpm._decode(feat, np.array([0.0, 0.0]), decoder_of(params))
        b, _, _ = tpm._decode(feat, np.array([1.0, 1.0]), decoder_of(params))
        np.testing.assert_array_equal(b - a, [[1.0, 1.0]])

    def test_hand_unit_mlp(self):
        # d=2 feature, hidden 2, out 2.
        store = ParamStore({
            "tpm.dec.w1": np.array([[1.0, 0.0], [0.0, -1.0]]),
            "tpm.dec.b1": np.array([0.0, 0.5]),
            "tpm.dec.w2": np.array([[2.0, 0.0], [0.0, 1.0]]),
            "tpm.dec.b2": np.array([0.1, -0.1]),
        })
        feat = np.array([[1.5, 2.0]])
        hidden = np.maximum(feat @ store["tpm.dec.w1"].data + store["tpm.dec.b1"].data, 0)
        expected = hidden @ store["tpm.dec.w2"].data + store["tpm.dec.b2"].data
        out, pre, relu_out = tpm._decode(feat, np.array([0.0, 0.0]), decoder_of(store))
        np.testing.assert_array_equal(relu_out, hidden)
        np.testing.assert_allclose(out, expected, atol=1e-15)
        np.testing.assert_allclose(out, [[3.1, -0.1]], atol=1e-12)


class TestRollout:
    def test_zero_decoder_repeats_last_position(self, cfg):
        params = init_params(cfg, seed=0)
        for name in ("tpm.dec.w1", "tpm.dec.b1", "tpm.dec.w2", "tpm.dec.b2"):
            params[name].data[:] = 0
        pos = np.cumsum(np.ones((1, cfg.t_obs, 2)), axis=1)
        scene = scene_from_positions(np.concatenate([pos, np.zeros((1, cfg.t_fut, 2))], axis=1))
        result = rollout(scene, pos[:, -1, :], params, cfg)
        expected = np.tile(pos[:, -1, :][:, None, :], (1, cfg.t_fut, 1))
        np.testing.assert_array_equal(result.trajectories, expected)

    def test_bitwise_deterministic(self, cfg, params, tiny_scene):
        goals = tiny_scene.positions()[:, -1, :]
        a = rollout(tiny_scene, goals, params, cfg).trajectories
        b = rollout(tiny_scene, goals, params, cfg).trajectories
        np.testing.assert_array_equal(a, b)

    def test_translation_equivariance_bias_free(self):
        cfg = ModelConfig(t_obs=4, t_fut=4, grid=16)
        params = init_params(cfg, seed=1)
        params["tpm.embed.b"].data[:] = 0.0
        rng = np.random.default_rng(2)
        pos = rng.uniform(2, 10, size=(3, 8, 2))
        scene = scene_from_positions(pos)
        goals = pos[:, -1, :] + rng.normal(scale=0.3, size=(3, 2))
        base = rollout(scene, goals, params, cfg).trajectories

        delta = np.array([10.0, -3.0])
        shifted_scene = scene_from_positions(pos + delta)
        shifted = rollout(shifted_scene, goals + delta, params, cfg).trajectories
        np.testing.assert_allclose(shifted, base + delta, atol=1e-9)

    def test_translation_equivariance_with_bias_and_anchor(self, cfg):
        params = init_params(cfg, seed=3)
        params["tpm.embed.b"].data[:] = np.random.default_rng(5).normal(size=cfg.d_model)
        rng = np.random.default_rng(3)
        for n_agents, goal_noise, delta in [(2, 0.0, (5.0, 7.0)), (3, 0.3, (10.0, -3.0))]:
            pos = rng.uniform(2, 10, size=(n_agents, 7, 2))
            goals = pos[:, -1, :] + rng.normal(scale=goal_noise, size=(n_agents, 2))
            base = rollout(scene_from_positions(pos), goals, params, cfg).trajectories
            delta = np.array(delta)
            shifted = rollout(
                scene_from_positions(pos + delta), goals + delta, params, cfg
            ).trajectories
            np.testing.assert_allclose(shifted, base + delta, atol=1e-9)

    def test_permutation_equivariance_bitwise(self, cfg, params):
        rng = np.random.default_rng(4)
        pos = rng.uniform(1, 14, size=(5, 7, 2))
        goals = rng.uniform(1, 14, size=(5, 2))
        ids = [11, 3, 7, 20, 5]
        base = rollout(scene_from_positions(pos, ids), goals, params, cfg, capture_trace=True)
        perm = rng.permutation(5)
        permuted = rollout(
            scene_from_positions(pos[perm], [ids[i] for i in perm]),
            goals[perm], params, cfg, capture_trace=True,
        )
        np.testing.assert_array_equal(permuted.trajectories, base.trajectories[perm])
        assert base.traces.shape == (cfg.t_fut, 5, 5)
        np.testing.assert_array_equal(permuted.traces, base.traces[:, perm][:, :, perm])

        batch_goals = goals + rng.normal(scale=0.5, size=(3, 5, 2))
        base = rollout(scene_from_positions(pos, ids), batch_goals, params, cfg, capture_trace=True)
        permuted = rollout(
            scene_from_positions(pos[perm], [ids[i] for i in perm]),
            batch_goals[:, perm], params, cfg, capture_trace=True,
        )
        assert base.trajectories.shape == (3, 5, cfg.t_fut, 2)
        np.testing.assert_array_equal(permuted.trajectories, base.trajectories[:, perm])
        assert base.traces.shape == permuted.traces.shape == (3, cfg.t_fut, 5, 5)
        np.testing.assert_array_equal(permuted.traces, base.traces[:, :, perm][..., perm])

    def test_trace_shape_and_row_sums(self, cfg, params, tiny_scene):
        goals = tiny_scene.positions()[:, -1, :]
        result = rollout(tiny_scene, goals, params, cfg, capture_trace=True)
        n = tiny_scene.n_agents
        assert result.traces.shape == (cfg.t_fut, n, n)
        np.testing.assert_allclose(result.traces.sum(axis=2), 1.0, atol=1e-6)

    def test_goal_sensitivity(self, cfg, params, tiny_scene):
        goals = tiny_scene.positions()[:, -1, :]
        base = rollout(tiny_scene, goals, params, cfg).trajectories
        nudged = goals.copy()
        nudged[0] += [2.0, -1.5]
        moved = rollout(tiny_scene, nudged, params, cfg).trajectories
        assert np.abs(moved[0] - base[0]).max() > 1e-8

    def test_recursive_prefix_consistency(self, cfg, params, tiny_scene):
        goals = tiny_scene.positions()[:, -1, :]
        full = rollout(tiny_scene, goals, params, cfg).trajectories
        short = rollout(tiny_scene, goals, params, cfg, n_steps=2).trajectories
        np.testing.assert_array_equal(short, full[:, :2, :])

    def test_nan_divergence_names_step(self, cfg, params, tiny_scene):
        params["tpm.dec.b2"].data[:] = np.nan
        with pytest.raises(DivergenceError, match="step 1"):
            rollout(tiny_scene, tiny_scene.positions()[:, -1, :], params, cfg)

    def test_missing_goals_rejected(self, cfg, params, tiny_scene):
        with pytest.raises(DataError, match="goal"):
            rollout(tiny_scene, None, params, cfg)

    def test_goal_shape_rejected(self, cfg, params, tiny_scene):
        with pytest.raises(DataError, match="goals must be"):
            rollout(tiny_scene, np.zeros((2, 3, 2)), params, cfg)

    @pytest.mark.parametrize("n_steps", [-1, 0, 4, 5, 6, 2.5])
    def test_n_steps_outside_horizon_rejected(self, cfg, params, tiny_scene, n_steps):
        # t_fut is 3: 4 and 5 steps would decode past the horizon (the fifth
        # token taking the goal token's positional row) and 6 past the table.
        with pytest.raises(ConfigError, match="n_steps must be None or in 1..3"):
            rollout(tiny_scene, tiny_scene.positions()[:, -1, :], params, cfg, n_steps=n_steps)


# The rollout that re-embedded the whole sequence at every step, kept
# verbatim as the reference of the rollout node, with three changes:
# ``reference_fusion``'s goal term gains a reshape (``goal_feature`` now
# returns (N, d)), each step decodes with the chain the node's decoder
# replaced, and the steps join into one positions tensor. ``fusion`` and
# ``goal_term`` swap in other per-step blocks.


def reference_fusion(tokens, goal, params, config):
    n, length, d = tokens.shape
    query = narrow(tokens, (slice(None), slice(length - 1, length)))
    t_last, _ = multi_head_attention(
        query, tokens, tokens, config.n_heads, params, "tpm.fusion.self0"
    )
    fused = t_last if goal is None else add(reshape(goal, (n, 1, d)), t_last)
    return reshape(fused, (n, d))


def reference_rollout(
    scene, goals, params, config, capture_trace=False, n_steps=None,
    fusion=reference_fusion, goal_term=goal_feature,
):
    obs_all = scene.positions()
    if obs_all.shape[1] < config.t_obs:
        raise DataError(
            f"scene {scene.key()}: {obs_all.shape[1]} frames < t_obs {config.t_obs}"
        )
    agent_ids = np.asarray(scene.agent_ids)
    n = len(agent_ids)
    obs = obs_all[:, : config.t_obs, :]
    goals_arr = None
    lead = ()  # (B,) for batched goals
    if config.use_goal:
        if goals is None:
            raise DataError("rollout needs one goal per agent when goal conditioning is on")
        goals_arr = np.asarray(goals, dtype=np.float64)
        if goals_arr.shape[-2:] != (n, 2) or goals_arr.ndim not in (2, 3):
            raise DataError(f"goals must be (N, 2) or (B, N, 2), got {goals_arr.shape}")
        if not np.isfinite(goals_arr).all():
            raise DataError("goals must be finite")
        lead = goals_arr.shape[:-2]
    b = lead[0] if lead else 1
    rows = b * n

    order = tpm._canonical_order(agent_ids)
    inverse = np.argsort(order)
    obs_c = obs[order]
    anchor = obs_c[:, -1, :].mean(axis=0)  # shared by all agents, canonical order

    goal = None
    if goals_arr is not None:
        goal_tok = embed_tokens(goals_arr[..., order, :], anchor, [config.t_total], params, config)
        goal = goal_term(reshape(goal_tok, (rows, 1, config.d_model)), params)

    obs_rows = np.broadcast_to(obs_c, lead + obs_c.shape).reshape(rows, config.t_obs, 2)
    parts = [constant(obs_rows)]
    step_tensors = []
    trace_steps = [] if capture_trace else None
    for step in range(1, (n_steps or config.t_fut) + 1):
        seq = parts[0] if len(parts) == 1 else concat(parts, axis=1)
        length = config.t_obs + step - 1
        tokens = embed_tokens(seq, anchor, np.arange(length), params, config)
        fused = fusion(tokens, goal, params, config)
        if lead:
            fused = reshape(fused, lead + (n, config.d_model))
        social, attn = social_attention(fused, params, config)
        last = narrow(seq, (slice(None), length - 1))
        nxt = reference_decode_step(social, last, params)
        if not np.isfinite(nxt.data).all():
            raise DivergenceError(
                f"non-finite prediction at step {step} of scene {scene.key()}",
                step=step,
            )
        parts.append(reshape(nxt, (rows, 1, 2)))
        step_tensors.append(reshape(nxt, lead + (n, 1, 2)))
        if capture_trace:
            trace_steps.append(np.asarray(attn).reshape(b, n, n))

    positions = concat(step_tensors, axis=-2)
    traces = None
    if capture_trace:
        traces = np.stack(trace_steps, axis=1)[:, :, inverse][..., inverse]
        traces = traces if lead else traces[0]
    return RolloutResult(
        trajectories=np.take(positions.data, inverse, axis=-3),
        traces=traces,
        positions=positions,
        canonical_order=order,
    )


class TestCachedRollout:
    """The rollout node against ``reference_rollout``: trajectories and
    traces bit for bit, gradients within 1e-12 of the largest."""

    @pytest.mark.parametrize(
        "n, lead, n_steps, overrides",
        [
            (1, (), None, {}),
            (3, (), None, {}),
            (1, (3,), None, {}),
            (3, (3,), None, {}),
            (3, (), 5, {}),
            (3, (3,), 2, {}),
            (3, (), None, {"use_goal": False}),
            (1, (), None, {"use_social": False}),
            (3, (3,), None, {"use_social": False}),
        ],
    )
    def test_matches_reference_bitwise(self, n, lead, n_steps, overrides):
        cfg = ModelConfig(t_obs=6, t_fut=8, grid=16, **overrides)
        params = init_params(cfg, seed=n + len(lead))
        rng = np.random.default_rng(n * 10 + len(lead))
        pos = rng.uniform(1, 14, size=(n, cfg.t_total, 2))
        scene = scene_from_positions(pos, list(rng.permutation(n) + 4))
        goals = rng.uniform(1, 14, size=lead + (n, 2)) if cfg.use_goal else None
        got = rollout(scene, goals, params, cfg, capture_trace=True, n_steps=n_steps)
        ref = reference_rollout(scene, goals, params, cfg, capture_trace=True, n_steps=n_steps)
        assert got.trajectories.shape == lead + (n, n_steps or cfg.t_fut, 2)
        assert got.trajectories.tobytes() == ref.trajectories.tobytes()
        assert got.traces.shape == ref.traces.shape
        assert got.traces.tobytes() == ref.traces.tobytes()

    @pytest.mark.parametrize("window", [0, 17])
    def test_window_loss_gradients_match_reference(self, window, monkeypatch):
        cfg = ModelConfig(t_obs=8, t_fut=12, grid=16, goal_sigma=0.8)
        params = init_params(cfg, seed=3)
        scene = overfit_dataset(0)[window]

        def loss_and_grads():
            params.zero_grad()
            total, goal_part, traj_part = window_loss_graph(params, cfg, TrainConfig(), scene)
            backward(total)
            return (total.item(), goal_part, traj_part), {
                n: params[n].grad.copy() for n in params.names()
            }

        parts, grads = loss_and_grads()
        monkeypatch.setattr(training, "rollout", reference_rollout)
        ref_parts, ref_grads = loss_and_grads()
        assert parts == ref_parts
        for name, ref in ref_grads.items():
            tol = 1e-12 * max(1.0, np.abs(ref).max())
            np.testing.assert_allclose(grads[name], ref, rtol=0, atol=tol, err_msg=name)

    @pytest.mark.parametrize(
        "overrides", [{}, {"use_social": False}, {"use_goal": False}], ids=["full", "no_social", "no_goal"]
    )
    def test_batched_gradients_match_reference(self, overrides):
        cfg = ModelConfig(t_obs=6, t_fut=8, grid=16, **overrides)
        params = init_params(cfg, seed=7)
        rng = np.random.default_rng(7)
        pos = rng.uniform(1, 14, size=(3, cfg.t_total, 2))
        scene = scene_from_positions(pos, [9, 4, 6])
        goals = rng.uniform(1, 14, size=(3, 3, 2)) if cfg.use_goal else None
        out, grads = rollout_and_grads(rollout, scene, goals, params, cfg)
        ref_out, ref_grads = rollout_and_grads(reference_rollout, scene, goals, params, cfg)
        assert out.tobytes() == ref_out.tobytes()
        assert_grads_match(grads, ref_grads)

    def test_no_grad_records_no_node(self, cfg, params, tiny_scene):
        with no_grad():
            result = rollout(tiny_scene, tiny_scene.positions()[:, -1], params, cfg)
        assert result.positions._parents == () and result.positions._bwd is None
        result = rollout(tiny_scene, tiny_scene.positions()[:, -1], params, cfg)
        assert result.positions.op == "rollout"


class TestPredictMultimodal:
    """``Model.predict``'s k joint samples: one batched rollout of k goal
    sets, or one goal-free rollout repeated k times."""

    def test_k1_reduces_to_rollout(self, cfg, params, tiny_scene):
        pred = predict_with_goals(tiny_scene, fixed_goals(tiny_scene, 1), params, cfg)
        direct = rollout(
            tiny_scene, tiny_scene.positions()[:, -1, :], params, cfg
        ).trajectories
        assert pred.k == 1
        np.testing.assert_array_equal(pred.trajectories[:, 0], direct)

    def test_identical_goals_give_identical_samples(self, cfg, params, tiny_scene):
        pred = predict_with_goals(tiny_scene, fixed_goals(tiny_scene, 4), params, cfg)
        for j in range(1, 4):
            np.testing.assert_array_equal(pred.trajectories[:, j], pred.trajectories[:, 0])

    def test_batched_matches_serial_rollouts(self, cfg, params, three_agent_scene):
        scene = three_agent_scene
        k = 20
        rng = np.random.default_rng(11)
        goals = fixed_goals(scene, k)
        goals = goals + rng.normal(scale=1.5, size=goals.shape)
        pred = predict_with_goals(scene, goals, params, cfg, capture_trace=True)
        n = scene.n_agents
        assert pred.trajectories.shape == (n, k, cfg.t_fut, 2)
        assert pred.traces.shape == (k, cfg.t_fut, n, n)
        for j in range(k):
            one = rollout(scene, goals[:, j], params, cfg, capture_trace=True)
            np.testing.assert_allclose(
                pred.trajectories[:, j], one.trajectories, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(pred.traces[j], one.traces, rtol=0, atol=1e-12)

    def test_goal_free_samples_repeat_one_rollout(self, cfg, tiny_scene):
        cfg_ng = replace(cfg, use_goal=False)
        params = init_params(cfg_ng, seed=0)
        pred = Model(cfg_ng, params).predict(tiny_scene, k=3, seed=0, capture_trace=True)
        one = rollout(tiny_scene, None, params, cfg_ng, capture_trace=True)
        assert pred.k == 3 and len(pred.traces) == 3
        for j in range(3):
            np.testing.assert_array_equal(pred.trajectories[:, j], one.trajectories)
            np.testing.assert_array_equal(pred.traces[j], one.traces)

    def test_goal_weights_are_the_ttst_masses_in_sample_order(
        self, cfg, params, three_agent_scene
    ):
        scene = three_agent_scene
        model = Model(replace(cfg, n_raw_samples=300), params)
        pred = model.predict(scene, k=6, seed=4)
        seeds = [stable_seed(4, scene.key(), a) for a in scene.agent_ids]
        _, weights = ttst_sample(model.heatmaps(scene), 300, 6, seeds)
        assert pred.goal_weights.shape == (scene.n_agents, 6)
        np.testing.assert_array_equal(pred.goal_weights, weights)
        np.testing.assert_allclose(pred.goal_weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        no_goal = replace(cfg, use_goal=False)
        goal_free = Model(no_goal, init_params(no_goal, seed=0)).predict(scene, k=6, seed=4)
        assert goal_free.goal_weights is None

    def test_trace_per_sample(self, cfg, params, tiny_scene):
        pred = predict_with_goals(
            tiny_scene, fixed_goals(tiny_scene, 3, spread=1.0), params, cfg, capture_trace=True
        )
        assert pred.traces.shape[:2] == (3, cfg.t_fut)


class TestExports:
    def test_prediction_txt_roundtrip(self, cfg, params, tiny_scene, tmp_path):
        pred = predict_with_goals(tiny_scene, fixed_goals(tiny_scene, 2, spread=0.5), params, cfg)
        path = tmp_path / "pred.txt"
        save_prediction_txt(path, tiny_scene, pred, cfg.t_obs)
        records = load_prediction_txt(path)
        frames = tiny_scene.frame_ids[cfg.t_obs :]
        assert len(records) == 2 * tiny_scene.n_agents * len(frames)
        for i, aid in enumerate(tiny_scene.agent_ids):
            for j in range(2):
                for s, f in enumerate(frames):
                    np.testing.assert_array_equal(
                        records[(j, int(f), aid)], pred.trajectories[i, j, s]
                    )

    def test_prediction_txt_matches_line_loop(self, cfg, params, three_agent_scene, tmp_path):
        # The per-line loop that save_prediction_txt replaced, kept as its
        # reference, on agent ids out of order.
        scene = scene_from_positions(three_agent_scene.positions(), [7, 2, 5])
        pred = predict_with_goals(scene, fixed_goals(scene, 4, spread=0.7), params, cfg)
        lines = []
        for j in range(pred.k):
            for i, agent in enumerate(pred.agent_ids):
                for f, (x, y) in zip(scene.frame_ids[cfg.t_obs :], pred.trajectories[i, j]):
                    lines.append(f"{j} {int(f)} {int(agent)} {float(x)!r} {float(y)!r}")
        path = tmp_path / "pred.txt"
        save_prediction_txt(path, scene, pred, cfg.t_obs)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_read_prediction_matches_record_loop(self, cfg, params, three_agent_scene, tmp_path):
        scene = scene_from_positions(three_agent_scene.positions(), [7, 2, 5])
        pred = predict_with_goals(scene, fixed_goals(scene, 4, spread=0.7), params, cfg)
        path = tmp_path / "pred.txt"
        save_prediction_txt(path, scene, pred, cfg.t_obs)
        records = load_prediction_txt(path)
        frames = [int(f) for f in scene.frame_ids[cfg.t_obs :]]
        looped = np.empty((scene.n_agents, 4, len(frames), 2))
        for i, a in enumerate(scene.agent_ids):
            for j in range(4):
                for s, f in enumerate(frames):
                    looped[i, j, s] = records[(j, f, a)]
        ev = _read_prediction(path, scene, cfg.t_obs)
        np.testing.assert_array_equal(ev.predictions, looped)
        np.testing.assert_array_equal(ev.predictions, pred.trajectories)
        np.testing.assert_array_equal(ev.ground_truth, scene.positions()[:, cfg.t_obs :])

        def first_mismatch(records):
            lines = [f"{j} {f} {a} {x!r} {y!r}" for (j, f, a), (x, y) in records.items()]
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(AlignmentError) as info:
                _read_prediction(path, scene, cfg.t_obs)
            return info.value.first_mismatch

        assert first_mismatch({**records, (0, 999, 7): (0.0, 0.0)}) == (0, 999, 7)
        deleted = (2, frames[1], 7)
        del records[deleted]
        assert first_mismatch(records) == deleted
        records[(4, frames[1], 7)] = (0.0, 0.0)
        assert first_mismatch(records) == deleted

    def test_trace_json_schema(self, cfg, params, tiny_scene, tmp_path):
        import json

        result = rollout(
            tiny_scene, tiny_scene.positions()[:, -1, :], params, cfg, capture_trace=True
        )
        path = tmp_path / "trace.json"
        save_trace_json(path, result.traces, tiny_scene.agent_ids, tiny_scene.key(), 0, cfg.t_obs)
        obj = json.loads(path.read_text())
        assert set(obj) == {"scene_id", "sample_index", "agent_ids", "steps"}
        assert obj["scene_id"] == tiny_scene.key()
        assert obj["sample_index"] == 0
        assert obj["agent_ids"] == tiny_scene.agent_ids
        assert [s["t"] for s in obj["steps"]] == list(
            range(cfg.t_obs + 1, cfg.t_obs + cfg.t_fut + 1)
        )
        mat = np.array(obj["steps"][0]["matrix"])
        assert mat.shape == (tiny_scene.n_agents, tiny_scene.n_agents)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_array_equal([s["matrix"] for s in obj["steps"]], result.traces)

        # render reads the trace back and draws one N x N grid per step.
        scene_dir, pred_dir, out = tmp_path / "scene", tmp_path / "pred", tmp_path / "svg"
        scene_dir.mkdir()
        pred_dir.mkdir()
        save_trajectories(scene_dir / "tiny.txt", tiny_scene)
        config = tmp_path / "tiny.cfg"
        config.write_text(f"[model]\nt_obs={cfg.t_obs}\nt_fut={cfg.t_fut}\ngrid={cfg.grid}\n")
        assert main([
            "render", "--scene", str(scene_dir), "--pred", str(pred_dir),
            "--config", str(config), "--trace", str(path), "--out-svg", str(out),
        ]) == 0
        svgs = sorted(out.glob("trace_t*.svg"))
        assert len(svgs) == cfg.t_fut
        assert all(svg.read_text().count("<rect") == tiny_scene.n_agents**2 for svg in svgs)
