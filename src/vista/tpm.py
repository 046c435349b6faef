"""Recursive trajectory decoding: hybrid positional encoding, goal-trajectory
fusion, social attention across agents, and displacement decoding with
attention-trace capture.

The fusion's cross-attention to a single goal token is exactly a linear goal
term (``goal_feature``), computed once per rollout and added at every step.

``rollout`` is the one recursion, recorded as one graph node. It decodes a
scene's N agents under B goal sets at once, as a (B, N) batch: training and
validation roll out one goal set (B=1), and best-of-k prediction rolls out
all k goal samples as B=k. The observations are embedded once; every later
step embeds only the previous step's prediction and appends its temporal
key and value to a per-rollout cache, over which the newest token attends.
The node's backward runs back through time over the model's own feedback.
Agents are processed in a canonical order
(sorted by agent_id) internally and restored to input order on output, which
makes permutation equivariance exact at the bit level. Positions and goals
are embedded relative to the mean of the agents' last observed positions,
making predictions translation-equivariant. Results stay arrays: ([B,] N,
T_fut, 2) positions and ([B,] T_fut, N, N) head-averaged social-attention
maps, one per batch row and step, which ``save_trace_json`` writes per row.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .attention import KVCache, attend, attend_backward, heads_first, init_mha_params, mha_params
from .config import ModelConfig
from .data import Scene, atomic_write
from .errors import AlignmentError, ConfigError, DataError, DivergenceError
from .params import ParamStore, glorot_uniform
from .tensor import (
    Tensor,
    _gemm,
    _node,
    _recording,
    _relu_data,
    _unbroadcast,
    as_tensor,
    layer_norm,
    linear,
    sinusoidal_table,
)


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

    @property
    def k(self):
        return self.trajectories.shape[1]


@dataclass
class RolloutResult:
    trajectories: np.ndarray  # ([B,] N, T_fut, 2), input agent order
    traces: np.ndarray | None  # ([B,] T_fut, N, N), input agent order
    positions: Tensor  # the "rollout" node: ([B,] N, T_fut, 2), canonical agent order
    canonical_order: np.ndarray  # input index -> canonical row


# -- parameters -----------------------------------------------------------


def init_tpm_params(store: ParamStore, config: ModelConfig, rng: np.random.Generator):
    d = config.d_model
    store.add("tpm.embed.w", glorot_uniform(rng, 2, d, (2, d)))
    store.add("tpm.embed.b", np.zeros(d))
    store.add("tpm.pe.learn", np.zeros((config.t_total + 1, d)))
    init_mha_params(store, "tpm.fusion.self0", d, rng)
    if config.use_goal:
        # goal_feature reads only wv, bv, wo and bo. wq, bq and wk stay in the
        # store, unread, so checkpoints keep their parameter names and the
        # draws that follow keep their order.
        init_mha_params(store, "tpm.fusion.cross", d, rng)
        store.add("tpm.fusion.norm.gamma", np.ones(d))
        store.add("tpm.fusion.norm.beta", np.zeros(d))
    if config.use_social:
        init_mha_params(store, "tpm.social0", d, rng)
    store.add("tpm.dec.w1", glorot_uniform(rng, d, d, (d, d)))
    store.add("tpm.dec.b1", np.zeros(d))
    store.add("tpm.dec.w2", glorot_uniform(rng, d, 2, (d, 2)))
    store.add("tpm.dec.b2", np.zeros(2))


# -- building blocks -------------------------------------------------------


def _embed(rel, time_indices, params: ParamStore, config: ModelConfig):
    """Tokens ``rel @ W + b + (sinusoidal(t) + learnable(t))`` for points
    ``rel`` relative to the anchor. A single int index embeds (rows, 2)
    points through ``_gemm``, so each row equals that position's row of a
    (rows, L, 2) embedding bit for bit."""
    idx = np.asarray(time_indices, dtype=np.int64)
    if idx.min() < 0 or idx.max() > config.t_total:
        raise ConfigError(
            f"time index out of positional-table range 0..{config.t_total}: {idx}"
        )
    w = params["tpm.embed.w"].data
    table = sinusoidal_table(config.t_total + 1, config.d_model)
    per_index = table[idx] + params["tpm.pe.learn"].data[idx]
    product = _gemm(rel, w) if idx.ndim == 0 else np.matmul(rel, w)
    return (product + params["tpm.embed.b"].data) + per_index


def embed_tokens(points, anchor, time_indices, params: ParamStore, config: ModelConfig) -> Tensor:
    """Tokens ``(points - anchor) @ W + b + (sinusoidal(t) + learnable(t))``
    as one node, for points (..., 2) and one time index per token row: the
    (len(time_indices), d) per-index terms broadcast against the trailing
    axes of the output."""
    points = as_tensor(points)
    w, b, learn = params["tpm.embed.w"], params["tpm.embed.b"], params["tpm.pe.learn"]
    idx = np.asarray(time_indices, dtype=np.int64)
    rel = points.data - anchor
    out = _embed(rel, idx, params, config)

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


def goal_feature(goal_tokens: Tensor, params: ParamStore) -> Tensor:
    """The normalized goal term (N, d) of the fusion for goal tokens (N, 1, d).

    This is the cross-attention of ``tpm.fusion.cross`` from any query to
    the one goal token: its softmax weight is exactly 1.0, so the output is
    the value/output path alone, bit for bit."""
    n, _, d = goal_tokens.shape
    value = linear(goal_tokens, params["tpm.fusion.cross.wv"], params["tpm.fusion.cross.bv"])
    out = linear(value, params["tpm.fusion.cross.wo"], params["tpm.fusion.cross.bo"])
    normed = layer_norm(out) * params["tpm.fusion.norm.gamma"] + params["tpm.fusion.norm.beta"]
    return normed.reshape((n, d))


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

    ``goals`` is one (x, y) per agent in scene units, shape (N, 2), or a
    stack of B such goal sets, shape (B, N, 2); each batch row is one joint
    rollout of the same observations and the result gains a leading B axis.
    Goals are ignored when the model is configured without goal
    conditioning. The observation window is the first t_obs frames of the
    scene. ``n_steps`` truncates the recursion (default T_fut); because step
    t+1 sees exactly the observations plus the predictions of steps <= t, a
    truncated rollout is a bit-exact prefix of the full one.

    Each step is temporal attention of the newest token over the agent's
    tokens plus the goal term, social attention across the agents of a
    batch row, and the decoder. Step 1 embeds the t_obs observations as one
    (rows, t_obs, 2) block and queries with the last of them; each later
    step embeds only the previous step's prediction, as a (rows, 2)
    operand, appends it to the temporal layer's ``KVCache`` and queries with
    it as a (rows, 1, d) operand. Each row of these products equals the row
    that re-embedding the whole sequence at every step would compute, so
    the outputs are bit for bit those of that recursion. The exception is
    t_obs = 1: its one-row first block goes through BLAS gemv, which the
    re-embedding recursion replaced by gemm from step 2 on.

    The whole recursion is one graph node, ``RolloutResult.positions``. Its
    backward walks the steps in reverse and computes only data gradients
    per step. A token's key, value and query gradients are complete once the
    walk reaches the step that queried it, which converts them into the
    token's gradient with one product. Every weight gradient is one product
    over the stacked per-step operands at the end.
    """
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
    t_obs, d, heads = config.t_obs, config.d_model, config.n_heads

    order = _canonical_order(agent_ids)
    inverse = np.argsort(order)
    obs_c = obs[order]
    anchor = obs_c[:, -1, :].mean(axis=0)  # shared by all agents, canonical order

    # Every matmul keeps the per-row operand shape of an unbatched rollout
    # (numpy runs stacked matmuls one inner matrix at a time, and a 2-D
    # product's rows do not depend on its row count), so batch row j
    # repeats the arithmetic of an unbatched rollout of goals[j].
    goal = None
    if goals_arr is not None:
        goal_tok = embed_tokens(goals_arr[..., order, :], anchor, [config.t_total], params, config)
        goal = goal_feature(goal_tok.reshape((rows, 1, d)), params)

    embed = tuple(params[f"tpm.{name}"] for name in ("embed.w", "embed.b", "pe.learn"))
    temporal = mha_params(params, "tpm.fusion.self0")
    social = mha_params(params, "tpm.social0") if config.use_social else ()
    decoder = tuple(params[f"tpm.dec.{name}"] for name in ("w1", "b1", "w2", "b2"))
    parents = (() if goal is None else (goal,)) + embed + temporal + social + decoder
    record = _recording(parents)
    wq, bq, _, _, _, wo, bo = (p.data for p in temporal)
    if social:
        swq, sbq, swk, swv, sbv, swo, sbo = (p.data for p in social)

    n_steps = n_steps or config.t_fut
    obs_rows = np.broadcast_to(obs_c, lead + obs_c.shape).reshape(rows, t_obs, 2)
    rel = obs_rows - anchor
    tokens = _embed(rel, np.arange(t_obs), params, config)
    cache = KVCache(tokens, t_obs + n_steps - 1, params, "tpm.fusion.self0")
    query = tokens[:, -1]
    last = obs_rows[:, -1]
    tape, steps, trace_steps = [], [], []
    for step in range(1, n_steps + 1):
        if step > 1:
            rel = last.reshape(rows, 2) - anchor
            query = _embed(rel, t_obs + step - 2, params, config)
            cache.append(query)
        length = cache.length
        merged_t, saved_t = attend(
            np.matmul(query[:, None], wq) + bq,
            cache.keys[:, :length],
            cache.values[:, :length],
            heads,
        )
        fused = np.matmul(merged_t, wo) + bo
        if goal is not None:
            fused = goal.data.reshape(fused.shape) + fused
        fused = fused.reshape(lead + (n, d))
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
            raise DivergenceError(
                f"non-finite prediction at step {step} of scene {scene.key()}",
                step=step,
            )
        last = nxt
        steps.append(nxt)
        if record:
            tape.append((rel, saved_t, merged_t, fused, saved_s, merged_s, feature, pre, hidden))
        if capture_trace:
            attn = heads_first(saved_s[-1]).mean(axis=0) if social else np.eye(n)
            trace_steps.append(np.broadcast_to(attn, lead + (n, n)).reshape(b, n, n))

    def bwd(g):
        rel, saved_t, merged_t, fused, saved_s, merged_s, feature, pre, hidden = zip(*tape)
        g = g.reshape(rows, n_steps, 2)
        w1, w2, w_embed = decoder[0].data, decoder[2].data, embed[0].data
        w_t = _qkv_weights(temporal)
        w_s = _qkv_weights(social) if social else None
        # The query | key | value gradients of every temporal token, and the
        # token gradients they convert into.
        g_qkv = np.zeros((rows, cache.length, 3 * d))
        g_tok = np.empty((rows, cache.length, d))
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
        g_learn[: cache.length] = g_tok.sum(axis=0)
        rels = np.concatenate([rel[0]] + [r[:, None] for r in rel[1:]], axis=1)
        grads = [_outer(rels, g_tok), _row_sum(g_tok), g_learn]
        grads += _mha_grads(cache.x, g_qkv, np.stack(merged_t), g_fused)
        if social:
            grads += _mha_grads(np.stack(fused), g_qkv_s, np.stack(merged_s), g_feature)
        grads += [_outer(np.stack(feature), g_hidden), _row_sum(g_hidden)]
        grads += [_outer(np.stack(hidden), g_next), _row_sum(g_next)]
        if goal is not None:
            grads.insert(0, g_fused.sum(axis=0).reshape(goal.shape))
        return grads

    positions = np.stack(steps, axis=-2)
    traces = None
    if capture_trace:
        traces = np.stack(trace_steps, axis=1)[:, :, inverse][..., inverse]
        traces = traces if lead else traces[0]
    return RolloutResult(
        trajectories=np.take(positions, inverse, axis=-3),
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
    future_frames = scene.frame_ids[t_obs:]
    lines = []
    for j in range(pred.k):
        for i, agent in enumerate(pred.agent_ids):
            for f, (x, y) in zip(future_frames, pred.trajectories[i, j]):
                lines.append(f"{j} {int(f)} {int(agent)} {float(x)!r} {float(y)!r}")
    atomic_write(path, "\n".join(lines) + "\n")


def load_prediction_txt(path):
    """Returns {(sample_id, frame_id, agent_id): (x, y)}, one entry per line."""
    records = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            try:
                j, f, a, x, y = parts
                key, xy = (int(j), int(f), int(a)), (float(x), float(y))
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: expected 'sample frame agent x y', got {raw.strip()!r}"
                ) from None
            if key in records:
                raise DataError(f"{path}:{lineno}: duplicate record for (sample, frame, agent) = {key}")
            records[key] = xy
    return records


def prediction_array(records, agent_ids, frames, k: int) -> np.ndarray:
    """(N, k, T, 2) trajectories from ``load_prediction_txt`` records; the
    records must hold exactly the window's k x T x N (sample, frame, agent) keys."""
    agents = np.asarray(agent_ids, dtype=np.int64)
    frames = np.asarray(frames, dtype=np.int64)
    n, t = len(agents), len(frames)
    mismatch = AlignmentError(f"prediction records do not form {k} samples x {t} frames x {n} agents")
    flat = itertools.chain.from_iterable
    try:
        keys = np.fromiter(flat(records), np.int64, count=3 * len(records)).reshape(-1, 3)
    except OverflowError:  # an id beyond int64 is no key of the window
        raise mismatch from None
    by_id = np.argsort(agents)
    rows = by_id[np.minimum(np.searchsorted(agents, keys[:, 2], sorter=by_id), n - 1)]
    steps = np.minimum(np.searchsorted(frames, keys[:, 1]), t - 1)
    known = (agents[rows] == keys[:, 2]) & (frames[steps] == keys[:, 1])
    known &= (keys[:, 0] >= 0) & (keys[:, 0] < k)
    if len(keys) != n * k * t or not known.all():
        raise mismatch
    traj = np.empty((n, k, t, 2))
    traj[rows, keys[:, 0], steps] = np.fromiter(
        flat(records.values()), np.float64, count=2 * len(records)
    ).reshape(-1, 2)
    return traj
