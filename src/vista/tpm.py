"""Recursive trajectory decoding: hybrid positional encoding, goal-trajectory
fusion, social attention across agents, and displacement decoding with
attention-trace capture.

The fusion's cross-attention to a single goal token is exactly a linear goal
term (``goal_feature``), computed once per rollout and added at every step.

``rollout`` is the one recursion. It decodes a scene's N agents under B goal
sets at once, as a (B, N) batch in one stacked graph: training and
validation roll out one goal set (B=1), and best-of-k prediction rolls out
all k goal samples as B=k. The observations are embedded once; every later
step embeds only the previous step's prediction and appends its temporal
key and value to a per-rollout cache, over which the newest token attends.
The predictions stay graph tensors, so gradients flow through the model's
own feedback. Agents are processed in a canonical order
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

from .attention import KVCache, init_mha_params, multi_head_attention
from .config import ModelConfig
from .data import Scene, atomic_write
from .errors import AlignmentError, ConfigError, DataError, DivergenceError
from .params import ParamStore, glorot_uniform
from .tensor import (
    Tensor,
    _gemm,
    _node,
    _relu_data,
    _unbroadcast,
    as_tensor,
    constant,
    layer_norm,
    linear,
    narrow,
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
    step_tensors: list  # ([B,] N, 2) tensors per step, canonical agent order
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


def embed_tokens(points, anchor, time_indices, params: ParamStore, config: ModelConfig) -> Tensor:
    """Tokens ``(points - anchor) @ W + b + (sinusoidal(t) + learnable(t))``
    as one node, for points (..., 2) and one time index per token row: the
    (len(time_indices), d) per-index terms broadcast against the trailing
    axes of the output.

    A single int index embeds points (rows, 2) as one sequence position:
    each row equals that position's row of a (rows, L, 2) embedding bit
    for bit."""
    idx = np.asarray(time_indices, dtype=np.int64)
    if idx.min() < 0 or idx.max() > config.t_total:
        raise ConfigError(
            f"time index out of positional-table range 0..{config.t_total}: {idx}"
        )
    points = as_tensor(points)
    w, b, learn = params["tpm.embed.w"], params["tpm.embed.b"], params["tpm.pe.learn"]
    rel = points.data - anchor
    per_index = sinusoidal_table(config.t_total + 1, config.d_model)[idx] + learn.data[idx]
    product = _gemm(rel, w.data) if idx.ndim == 0 else np.matmul(rel, w.data)
    out = (product + b.data) + per_index

    def bwd(g):
        glearn = np.zeros(learn.shape, dtype=g.dtype)
        np.add.at(glearn, idx, _unbroadcast(g, per_index.shape))
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


def goal_trajectory_fusion(
    query: Tensor, cache: KVCache, goal: Tensor | None, params: ParamStore, config: ModelConfig
) -> Tensor:
    """Temporal self-attention of each row's newest token ``query`` (N, d)
    over the row's tokens in ``cache`` (the query's own included), plus the
    ``goal_feature`` term (N, d) as a residual; returns the fused (N, d)
    features.

    Only the newest time step feeds the decoder, so the temporal layer
    queries just that token."""
    fused, _ = multi_head_attention(
        query, cache, cache, config.n_heads, params, "tpm.fusion.self0", residual=goal
    )
    return fused


def social_attention(features, params: ParamStore, config: ModelConfig):
    """Multi-head self-attention across agent tokens.

    ``features`` is (N, d) or (B, N, d); agents attend within their batch
    row. Returns the updated features and the head-averaged ([B,] N, N)
    attention matrix.
    """
    feats = as_tensor(features)
    n = feats.shape[-2]
    if not config.use_social:
        return feats, np.broadcast_to(np.eye(n), feats.shape[:-1] + (n,))
    out, heads = multi_head_attention(
        feats, feats, feats, config.n_heads, params, "tpm.social0"
    )
    return out, heads.mean(axis=0)


def decode_step(feature, last_pos, params: ParamStore):
    """next_pos = last_pos + MLP(feature) for features (..., d), as one
    node; MLP is d -> d -> 2 with relu."""
    feature, last = as_tensor(feature), as_tensor(last_pos)
    w1, b1 = params["tpm.dec.w1"], params["tpm.dec.b1"]
    w2, b2 = params["tpm.dec.w2"], params["tpm.dec.b2"]
    pre = np.matmul(feature.data, w1.data) + b1.data
    hidden = _relu_data(pre)
    delta = np.matmul(hidden, w2.data) + b2.data
    out = last.data.reshape(delta.shape) + delta

    def bwd(g):
        gh = np.matmul(g, w2.data.T) * (pre > 0)
        d = w1.shape[1]
        return (
            np.matmul(gh, w1.data.T) if feature.requires_grad else None,
            g.reshape(last.shape),
            feature.data.reshape(-1, w1.shape[0]).T @ gh.reshape(-1, d),
            _unbroadcast(gh, b1.shape),
            hidden.reshape(-1, d).T @ g.reshape(-1, w2.shape[1]),
            _unbroadcast(g, b2.shape),
        )

    return _node(out, (feature, last, w1, b1, w2, b2), bwd, "decode")


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

    Step 1 embeds the t_obs observations as one (rows, t_obs, 2) block and
    queries with the last of them; each later step embeds only the previous
    step's prediction, as a (rows, 2) operand, appends it to the temporal
    layer's ``KVCache`` and queries with it. Each row of these products
    equals the row that re-embedding the whole sequence at every step would
    compute, so the outputs are bit for bit those of that recursion. The
    exception is t_obs = 1: its one-row first block goes through BLAS gemv,
    which the re-embedding recursion replaced by gemm from step 2 on.

    All B*N agent rows run as one stacked graph; only social attention sees
    the batch axis, so agents interact within their own row.
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
        goal = goal_feature(goal_tok.reshape((rows, 1, config.d_model)), params)

    n_steps = n_steps or config.t_fut
    obs_rows = np.broadcast_to(obs_c, lead + obs_c.shape).reshape(rows, config.t_obs, 2)
    tokens = embed_tokens(obs_rows, anchor, np.arange(config.t_obs), params, config)
    cache = KVCache(tokens, config.t_obs + n_steps - 1, params, "tpm.fusion.self0")
    query = narrow(tokens, (slice(None), config.t_obs - 1))
    last = constant(obs_rows[:, -1])
    step_tensors = []
    trace_steps = [] if capture_trace else None
    for step in range(1, n_steps + 1):
        if step > 1:
            points = last.reshape((rows, 2)) if lead else last
            query = embed_tokens(points, anchor, config.t_obs + step - 2, params, config)
            cache.append(query)
        fused = goal_trajectory_fusion(query, cache, goal, params, config)
        if lead:
            fused = fused.reshape(lead + (n, config.d_model))
        social, attn = social_attention(fused, params, config)
        nxt = decode_step(social, last, params)
        if not np.isfinite(nxt.data).all():
            raise DivergenceError(
                f"non-finite prediction at step {step} of scene {scene.key()}",
                step=step,
            )
        last = nxt
        step_tensors.append(nxt)
        if capture_trace:
            trace_steps.append(np.asarray(attn).reshape(b, n, n))

    trajectories = np.stack([t.data for t in step_tensors], axis=-2)
    trajectories = np.take(trajectories, inverse, axis=-3)
    traces = None
    if capture_trace:
        traces = np.stack(trace_steps, axis=1)[:, :, inverse][..., inverse]
        traces = traces if lead else traces[0]
    return RolloutResult(
        trajectories=trajectories,
        traces=traces,
        step_tensors=step_tensors,
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
