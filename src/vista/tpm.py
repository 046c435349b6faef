"""Recursive trajectory decoding: hybrid positional encoding, goal-trajectory
fusion, social attention across agents, and displacement decoding with
attention-trace capture.

The fusion's cross-attention to a single goal token is exactly a linear goal
term (``_goal_term``), computed once per rollout and added at every step.

``rollout`` is the one recursion, recorded as one graph node together with
its goal term. It decodes a
scene's N agents under B goal sets at once, as a (B, N) batch: training and
validation roll out one goal set (B=1), and best-of-k prediction rolls out
all k goal samples as B=k. The observations are embedded once; every later
step embeds only the previous step's prediction and appends it, its temporal
key and its value to the rollout's buffers, over which the newest token attends.
The node's backward runs back through time over the model's own feedback.
Agents are processed in a canonical order
(sorted by agent_id) internally and restored to input order on output, which
makes permutation equivariance exact at the bit level. Positions and goals
are embedded relative to the mean of the agents' last observed positions,
making predictions translation-equivariant. Results stay arrays: (B, N,
T_fut, 2) positions and (B, T_fut, N, N) head-averaged social-attention
maps, one per batch row and step, which ``save_trace_json`` writes per row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .attention import attend, attend_backward, heads_first, init_mha_params, mha_params
from .config import ModelConfig
from .data import Scene, atomic_write, read_records
from .errors import ConfigError, DataError, DivergenceError
from .params import ParamStore, glorot_uniform
from .tensor import Tensor, _gemm, _node, _recording, _relu_data, sinusoidal_table


@dataclass
class PredictionSet:
    agent_ids: list
    trajectories: np.ndarray  # (N, k, T_fut, 2) in scene units
    # (k, T_fut, N, N) head-averaged social attention per sample and step;
    # None unless the prediction captured traces.
    traces: np.ndarray | None = None
    # (N, k) TTST cluster mass of the goal sample j gave each agent; None
    # without goal conditioning.
    goal_weights: np.ndarray | None = None


@dataclass
class RolloutResult:
    trajectories: np.ndarray  # (B, N, T_fut, 2), input agent order
    traces: np.ndarray | None  # (B, T_fut, N, N), input agent order
    positions: Tensor  # the "rollout" node: (B, N, T_fut, 2), canonical agent order
    canonical_order: np.ndarray  # input index -> canonical row


# -- parameters -----------------------------------------------------------

# The query and key projections of the fusion's cross-attention, which
# ``_goal_term`` does not read: with one goal token the softmax weight is 1
# whatever they are. They are drawn but not stored; checkpoints written with
# them still load (``training.model_params`` drops them).
RETIRED_PARAMS = ("tpm.fusion.cross.wq", "tpm.fusion.cross.bq", "tpm.fusion.cross.wk")


def init_tpm_params(arrays: dict, config: ModelConfig, rng: np.random.Generator):
    """Add the trajectory module's initial arrays to ``arrays``, in rng draw order."""
    d = config.d_model
    arrays["tpm.embed.w"] = glorot_uniform(rng, 2, d, (2, d))
    arrays["tpm.embed.b"] = np.zeros(d)
    arrays["tpm.pe.learn"] = np.zeros((config.t_total + 1, d))
    init_mha_params(arrays, "tpm.fusion.self0", d, rng)
    if config.use_goal:
        init_mha_params(arrays, "tpm.fusion.cross", d, rng)  # draws keep their order
        for name in RETIRED_PARAMS:
            del arrays[name]
        arrays["tpm.fusion.norm.gamma"] = np.ones(d)
        arrays["tpm.fusion.norm.beta"] = np.zeros(d)
    if config.use_social:
        init_mha_params(arrays, "tpm.social0", d, rng)
    arrays["tpm.dec.w1"] = glorot_uniform(rng, d, d, (d, d))
    arrays["tpm.dec.b1"] = np.zeros(d)
    arrays["tpm.dec.w2"] = glorot_uniform(rng, d, 2, (d, 2))
    arrays["tpm.dec.b2"] = np.zeros(2)


# -- building blocks -------------------------------------------------------


def _embed(rel, time_indices, params: ParamStore, config: ModelConfig):
    """Tokens ``rel @ W + b + (sinusoidal(t) + learnable(t))`` for points
    ``rel`` relative to the anchor. A single int index embeds (rows, 2)
    points through ``_gemm``, so each row equals that position's row of a
    (rows, L, 2) embedding bit for bit."""
    idx = np.asarray(time_indices, dtype=np.int64)
    w = params["tpm.embed.w"].data
    table = sinusoidal_table(config.t_total + 1, config.d_model)
    per_index = table[idx] + params["tpm.pe.learn"].data[idx]
    product = _gemm(rel, w) if idx.ndim == 0 else np.matmul(rel, w)
    return (product + params["tpm.embed.b"].data) + per_index


def _goal_term(goals, anchor, goal_params, params: ParamStore, config: ModelConfig):
    """The normalized goal term (rows, d) of the fusion for goals (..., 2),
    and the operands ``_goal_term_grads`` reads. ``goal_params`` are
    ``tpm.fusion.cross``'s wv, bv, wo and bo, then ``tpm.fusion.norm``'s
    gamma and beta.

    Each goal embeds as one token at index t_total. The term is the
    cross-attention of ``tpm.fusion.cross`` from any query to that one
    token, whose softmax weight is exactly 1.0, so it is the value/output
    path alone, then the fusion's layer norm (1e-5 added to the variance)
    and affine ``tpm.fusion.norm``."""
    d = config.d_model
    wv, bv, wo, bo, gamma, beta = (p.data for p in goal_params)
    rel = goals - anchor
    token = _embed(rel, [config.t_total], params, config).reshape(-1, 1, d)
    value = np.matmul(token, wv) + bv
    out = np.matmul(value, wo) + bo
    centered = out - out.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
    normed = centered * inv
    return (normed * gamma + beta).reshape(-1, d), (rel, token, value, normed, inv)


def _goal_term_grads(g, saved, goal_params):
    """For the goal term's gradient ``g`` (rows, d): the gradients of the
    embedding weight and of the bias (which is also the share of the
    learnable positional row t_total), then those of ``goal_params``."""
    rel, token, value, normed, inv = saved
    wv, _, wo, _, gamma, _ = (p.data for p in goal_params)
    g = g.reshape(normed.shape)
    g_norm = g * gamma
    g_out = inv * (
        g_norm
        - g_norm.mean(axis=-1, keepdims=True)
        - normed * (g_norm * normed).mean(axis=-1, keepdims=True)
    )
    g_value = np.matmul(g_out, wo.T)
    g_token = np.matmul(g_value, wv.T)
    return _outer(rel, g_token), _row_sum(g_token), [
        _outer(token, g_value), _row_sum(g_value), _outer(value, g_out), _row_sum(g_out),
        _row_sum(g * normed), _row_sum(g),
    ]


def _decode(feature, last, decoder):
    """``last + MLP(feature)`` for features (..., d) and the
    (w1, b1, w2, b2) ``decoder``: d -> d -> 2 with relu. Also returns the
    pre-activation and hidden units."""
    w1, b1, w2, b2 = (p.data for p in decoder)
    pre = np.matmul(feature, w1) + b1
    hidden = _relu_data(pre)
    delta = np.matmul(hidden, w2) + b2
    return last.reshape(delta.shape) + delta, pre, hidden


def _outer(x, g):
    """``x.T @ g`` over all leading axes of x (..., m) and g (..., n): one
    weight gradient over every step and row."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _row_sum(g):
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def _qkv_weights(layer):
    """(wq | wk | wv) of an attention layer's ``mha_params``, as one (d, 3d)
    matrix."""
    return np.concatenate([layer[0].data, layer[2].data, layer[3].data], axis=1)


def _mha_grads(x, g_qkv, merged, g_out):
    """The ``mha_params``-ordered gradients of an attention layer whose
    queries, keys and values all project ``x`` (..., d), for the stacked
    query | key | value projection gradients ``g_qkv`` (..., 3d) and the
    output gradient ``g_out`` of the merged heads ``merged``."""
    d = x.shape[-1]
    g_w, g_b = _outer(x, g_qkv), _row_sum(g_qkv)
    return [
        g_w[:, :d], g_b[:d], g_w[:, d : 2 * d], g_w[:, 2 * d :], g_b[2 * d :],
        _outer(merged, g_out), _row_sum(g_out),
    ]


# -- rollout ----------------------------------------------------------------


def _canonical_order(agent_ids):
    return np.argsort(np.asarray(agent_ids, dtype=np.int64), kind="stable")


def rollout(
    scene: Scene,
    goals,
    params: ParamStore,
    config: ModelConfig,
    capture_trace: bool = False,
    n_steps: int | None = None,
) -> RolloutResult:
    """Recursive decoding of T_fut steps for all agents of one scene window.

    ``goals`` is a stack of B goal sets, one (x, y) per agent in scene
    units, shape (B, N, 2); each batch row is one joint rollout of the same
    observations, and every result carries the leading B axis. Without goal
    conditioning the goals are ignored and B is 1. The observation window
    is the first t_obs frames of the scene. ``n_steps`` (None for T_fut,
    else 1..T_fut) truncates the recursion; because step t+1 sees exactly
    the observations plus the predictions of steps <= t, a truncated
    rollout is a bit-exact prefix.

    Each step is temporal attention of the newest token over the agent's
    tokens plus the goal term, social attention across the agents of a
    batch row, and the decoder. Step 1 embeds the t_obs observations as one
    (rows, t_obs, 2) block and queries with the last of them; each later
    step embeds only the previous step's prediction, as a (rows, 2) operand,
    appends it and its ``_gemm`` key and value to the rollout's buffers and
    queries with it as a (rows, 1, d) operand. Each row of these products
    equals the row that re-embedding the whole sequence at every step would
    compute, so the outputs are bit for bit those of that recursion. The
    exception is t_obs = 1: its one-row first block goes through BLAS gemv,
    which the re-embedding recursion replaced by gemm from step 2 on.

    The whole recursion, goal term included, is one graph node,
    ``RolloutResult.positions``. Its backward walks the steps in reverse and
    computes only data gradients per step. A token's key, value and query
    gradients are complete once the walk reaches the step that queried it,
    which converts them into the token's gradient with one product. Every
    weight gradient is one product over the stacked per-step operands at
    the end, and the goal term's gradients, summed over the steps, are added
    last.
    """
    n_steps = config.t_fut if n_steps is None else n_steps
    if n_steps not in range(1, config.t_fut + 1):
        raise ConfigError(f"n_steps must be None or in 1..{config.t_fut}, got {n_steps!r}")
    obs_all = scene.positions()
    if obs_all.shape[1] < config.t_obs:
        raise DataError(f"{scene.name()}: {obs_all.shape[1]} frames < t_obs {config.t_obs}")
    agent_ids = np.asarray(scene.agent_ids)
    n = len(agent_ids)
    obs = obs_all[:, : config.t_obs, :]
    goals_arr = None
    b = 1
    if config.use_goal:
        if goals is None:
            raise DataError("rollout needs one goal per agent when goal conditioning is on")
        goals_arr = np.asarray(goals, dtype=np.float64)
        if goals_arr.ndim != 3 or goals_arr.shape[1:] != (n, 2):
            raise DataError(f"goals must be (B, N, 2), got {goals_arr.shape}")
        if not np.isfinite(goals_arr).all():
            raise DataError("goals must be finite")
        b = len(goals_arr)
    rows = b * n
    t_obs, d, heads = config.t_obs, config.d_model, config.n_heads

    order = _canonical_order(agent_ids)
    inverse = np.argsort(order)
    obs_c = obs[order]
    anchor = obs_c[:, -1, :].mean(axis=0)  # shared by all agents, canonical order

    # Every matmul keeps the per-row operand shape of an unbatched rollout
    # (numpy runs stacked matmuls one inner matrix at a time, and a 2-D
    # product's rows do not depend on its row count), so batch row j
    # repeats the arithmetic of an unbatched rollout of goals[j].
    goal = goal_saved = None
    goal_params = ()
    if goals_arr is not None:
        names = ("cross.wv", "cross.bv", "cross.wo", "cross.bo", "norm.gamma", "norm.beta")
        goal_params = tuple(params[f"tpm.fusion.{name}"] for name in names)
        goal, goal_saved = _goal_term(goals_arr[..., order, :], anchor, goal_params, params, config)

    embed = tuple(params[f"tpm.{name}"] for name in ("embed.w", "embed.b", "pe.learn"))
    temporal = mha_params(params, "tpm.fusion.self0")
    social = mha_params(params, "tpm.social0") if config.use_social else ()
    decoder = tuple(params[f"tpm.dec.{name}"] for name in ("w1", "b1", "w2", "b2"))
    parents = embed + temporal + social + decoder + goal_params
    record = _recording(parents)
    wq, bq, wk, wv, bv, wo, bo = (p.data for p in temporal)
    if social:
        swq, sbq, swk, swv, sbv, swo, sbo = (p.data for p in social)

    obs_rows = np.broadcast_to(obs_c, (b,) + obs_c.shape).reshape(rows, t_obs, 2)
    rel = obs_rows - anchor
    # Every token of the sequence, with its temporal key and value.
    n_tokens = t_obs + n_steps - 1
    tokens, keys, values = (np.empty((rows, n_tokens, d)) for _ in range(3))
    block = _embed(rel, np.arange(t_obs), params, config)
    tokens[:, :t_obs] = block
    keys[:, :t_obs] = np.matmul(block, wk)
    values[:, :t_obs] = np.matmul(block, wv) + bv
    query = block[:, -1]
    last = obs_rows[:, -1]
    tape, steps, trace_steps = [], [], []
    for step in range(1, n_steps + 1):
        length = t_obs + step - 1  # tokens the step's query attends over
        if step > 1:
            rel = last.reshape(rows, 2) - anchor
            tokens[:, length - 1] = query = _embed(rel, length - 1, params, config)
            keys[:, length - 1] = _gemm(query, wk)
            values[:, length - 1] = _gemm(query, wv) + bv
        merged_t, saved_t = attend(
            np.matmul(query[:, None], wq) + bq, keys[:, :length], values[:, :length], heads
        )
        fused = np.matmul(merged_t, wo) + bo
        if goal is not None:
            fused = goal.reshape(fused.shape) + fused
        fused = fused.reshape(b, n, d)
        feature, merged_s, saved_s = fused, None, None
        if social:
            merged_s, saved_s = attend(
                np.matmul(fused, swq) + sbq,
                np.matmul(fused, swk),
                np.matmul(fused, swv) + sbv,
                heads,
            )
            feature = np.matmul(merged_s, swo) + sbo
        nxt, pre, hidden = _decode(feature, last, decoder)
        if not np.isfinite(nxt).all():
            raise DivergenceError(f"{scene.name()}: non-finite prediction at step {step}")
        last = nxt
        steps.append(nxt)
        if record:
            tape.append((rel, saved_t, merged_t, fused, saved_s, merged_s, feature, pre, hidden))
        if capture_trace:
            attn = heads_first(saved_s[-1]).mean(axis=0) if social else np.eye(n)
            trace_steps.append(np.broadcast_to(attn, (b, n, n)))

    def bwd(g):
        rel, saved_t, merged_t, fused, saved_s, merged_s, feature, pre, hidden = zip(*tape)
        g = g.reshape(rows, n_steps, 2)
        w1, w2, w_embed = decoder[0].data, decoder[2].data, embed[0].data
        w_t = _qkv_weights(temporal)
        w_s = _qkv_weights(social) if social else None
        # The query | key | value gradients of every temporal token, and the
        # token gradients they convert into.
        g_qkv = np.zeros((rows, n_tokens, 3 * d))
        g_tok = np.empty((rows, n_tokens, d))
        g_qkv_s = np.empty((n_steps, rows, 3 * d))
        g_hidden, g_feature, g_fused = (np.empty((n_steps, rows, d)) for _ in range(3))
        g_next = np.empty((n_steps, rows, 2))
        carry = 0.0
        for i in reversed(range(n_steps)):
            g_next[i] = g[:, i] + carry
            g_hidden[i] = (g_next[i] @ w2.T) * (pre[i].reshape(rows, d) > 0)
            g_feature[i] = gf = g_hidden[i] @ w1.T
            if social:
                g_merged = (gf @ swo.T).reshape(fused[i].shape)
                g_qkv_s[i] = np.concatenate(attend_backward(g_merged, saved_s[i]), axis=-1).reshape(
                    rows, 3 * d
                )
                gf = g_qkv_s[i] @ w_s.T
            g_fused[i] = gf
            gq, gk, gv = attend_backward((gf @ wo.T)[:, None], saved_t[i])
            length = t_obs + i
            g_qkv[:, length - 1, :d] = gq[:, 0]
            g_qkv[:, :length, d : 2 * d] += gk
            g_qkv[:, :length, 2 * d :] += gv
            if i:  # the query token embeds the previous step's prediction
                g_tok[:, length - 1] = g_qkv[:, length - 1] @ w_t.T
                carry = g_next[i] + g_tok[:, length - 1] @ w_embed.T
        g_tok[:, :t_obs] = g_qkv[:, :t_obs] @ w_t.T

        g_learn = np.zeros(embed[2].shape)
        g_learn[:n_tokens] = g_tok.sum(axis=0)
        rels = np.concatenate([rel[0]] + [r[:, None] for r in rel[1:]], axis=1)
        grads = [_outer(rels, g_tok), _row_sum(g_tok), g_learn]
        grads += _mha_grads(tokens, g_qkv, np.stack(merged_t), g_fused)
        if social:
            grads += _mha_grads(np.stack(fused), g_qkv_s, np.stack(merged_s), g_feature)
        grads += [_outer(np.stack(feature), g_hidden), _row_sum(g_hidden)]
        grads += [_outer(np.stack(hidden), g_next), _row_sum(g_next)]
        if goal is not None:
            g_w, g_b, g_goal = _goal_term_grads(g_fused.sum(axis=0), goal_saved, goal_params)
            grads[0] += g_w
            grads[1] += g_b
            g_learn[config.t_total] += g_b
            grads += g_goal
        return grads

    positions = np.stack(steps, axis=-2)
    traces = None
    if capture_trace:
        traces = np.stack(trace_steps, axis=1)[:, :, inverse][..., inverse]
    return RolloutResult(
        trajectories=positions[:, inverse],
        traces=traces,
        positions=_node(positions, parents, bwd, "rollout"),
        canonical_order=order,
    )


# -- export ----------------------------------------------------------------


def save_trace_json(path, steps, agent_ids, scene_id: str, sample_index: int, t_obs: int):
    """One sample's attention maps ``steps`` (T_fut, N, N) as JSON, step i
    labelled with frame index t_obs + 1 + i."""
    obj = {
        "scene_id": scene_id,
        "sample_index": sample_index,
        "agent_ids": [int(a) for a in agent_ids],
        "steps": [{"t": t_obs + 1 + i, "matrix": m.tolist()} for i, m in enumerate(steps)],
    }
    atomic_write(path, json.dumps(obj, sort_keys=True) + "\n")


def save_prediction_txt(path, scene: Scene, pred: PredictionSet, t_obs: int):
    """Trajectory text format extended with a sample_id column."""
    frames = [int(f) for f in scene.frame_ids[t_obs:]]
    heads = [[f"{f} {int(agent)} " for f in frames] for agent in pred.agent_ids]
    lines = []
    for j, sample in enumerate(pred.trajectories.transpose(1, 0, 2, 3).tolist()):
        for agent_heads, steps in zip(heads, sample):
            lines += [f"{j} {head}{x!r} {y!r}" for head, (x, y) in zip(agent_heads, steps)]
    atomic_write(path, "\n".join(lines) + "\n")


def load_prediction_txt(path):
    """Returns {(sample_id, frame_id, agent_id): (x, y)}, one entry per
    record line (``data.read_records``); DataError names the file when it
    holds no record."""
    records = read_records(path, "sample frame agent x y")
    if not records:
        raise DataError(f"{path}: no prediction records")
    return records
