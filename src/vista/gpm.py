"""Goal prediction: per-agent destination heatmaps over the scene grid, the
Gaussian targets of their training loss, and multi-goal (TTST) sampling.

The heatmap head is a small encoder-decoder with skip connections (two
2x-downsampling stages, channel widths from the config) on the engine: each
3x3 convolution is one node, an im2col matmul over the zero-padded input's
3x3 neighbourhoods, whose input gradient is the same over the output
gradient's; pooling is a block mean, and upsampling
nearest-neighbor duplication. Grid cell (r, c) is centered at (x=c, y=r).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import ModelConfig
from .data import SceneRaster, rasterize_gaussian, uniform_raster
from .errors import ConfigError, DataError
from .params import ParamStore, glorot_uniform
from .tensor import Tensor, _node, concat, constant, linear, relu


# -- parameters -----------------------------------------------------------


def init_gpm_params(store: ParamStore, config: ModelConfig, rng: np.random.Generator):
    c_in = config.n_classes + config.t_obs
    w1, w2 = config.enc_widths
    wd = config.dec_width

    def conv(name, cin, cout):
        fan_in, fan_out = 9 * cin, 9 * cout
        store.add(f"gpm.{name}.w", glorot_uniform(rng, fan_in, fan_out, (3, 3, cin, cout)))
        store.add(f"gpm.{name}.b", np.zeros(cout))

    conv("enc1", c_in, w1)
    conv("enc2", w1, w2)
    conv("bott", w2, w2)
    conv("dec2", w2 + w2, wd)
    conv("dec1", wd + w1, wd)
    store.add("gpm.out.w", glorot_uniform(rng, wd, 1, (wd, 1)))
    store.add("gpm.out.b", np.zeros(1))


# -- building blocks -------------------------------------------------------


def _im2col(x: np.ndarray) -> np.ndarray:
    """The (n*h*w, 9*c) matrix that holds each pixel's zero-padded 3x3
    neighbourhood of ``x`` (n, h, w, c), in the (di, dj, c) order of a
    (3, 3, c, c_out) kernel flattened row-major."""
    n, h, wd, c = x.shape
    xp = np.zeros((n, h + 2, wd + 2, c))
    xp[:, 1:-1, 1:-1] = x
    sn, sh, sw, sc = xp.strides
    windows = as_strided(  # (n, h, wd, di, dj, c), reading only inside xp
        xp, (n, h, wd, 3, 3, c), (sn, sh, sw, sh, sw, sc), writeable=False
    )
    return windows.reshape(n * h * wd, 9 * c)


def _conv3x3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Same-padded 3x3 convolution as one node: one im2col matmul of the
    input. The input gradient is the same convolution of the output
    gradient with the kernel flipped in (di, dj) and transposed in
    channels, so it is one im2col matmul too."""
    n, h, wd, cin = x.shape
    cout = w.shape[-1]
    columns = _im2col(x.data)
    out = np.matmul(columns, w.data.reshape(9 * cin, cout)) + b.data

    def bwd(g):
        g = g.reshape(n * h * wd, cout)
        gx = None
        if x.requires_grad:
            flipped = w.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(9 * cout, cin)
            gx = np.matmul(_im2col(g.reshape(n, h, wd, cout)), flipped).reshape(x.shape)
        return gx, (columns.T @ g).reshape(w.shape), g.sum(axis=0)

    return _node(out.reshape(n, h, wd, cout), (x, w, b), bwd, "conv3x3")


def _pool2(x: Tensor) -> Tensor:
    n, h, w, c = x.shape
    return x.reshape((n, h // 2, 2, w // 2, 2, c)).mean(axis=(2, 4))


def _upsample2(x: Tensor) -> Tensor:
    n, h, w, c = x.shape
    col = x.reshape((n, h, 1, w, 1, c))
    col = concat([col, col], axis=2)
    col = concat([col, col], axis=4)
    return col.reshape((n, 2 * h, 2 * w, c))


def encode_gpm_input(
    obs: np.ndarray, raster: SceneRaster | None, config: ModelConfig
) -> np.ndarray:
    """Stack raster class channels with one Gaussian channel per observed step.

    ``obs`` is (N, t_obs, 2) in grid-cell units. Scenes without a raster get a
    uniform single-class one.
    """
    if raster is None:
        raster = uniform_raster(config.grid, config.n_classes)
    h, w = raster.height, raster.width
    n = obs.shape[0]
    channels = np.empty((n, h, w, raster.n_classes + config.t_obs))
    for i in range(n):
        channels[i, :, :, : raster.n_classes] = raster.scores
        for t in range(config.t_obs):
            channels[i, :, :, raster.n_classes + t] = rasterize_gaussian(
                obs[i, t], (h, w), config.traj_sigma
            )
    return channels


def gpm_forward_batch(
    obs: np.ndarray,
    raster: SceneRaster | None,
    params: ParamStore,
    config: ModelConfig,
    channels: np.ndarray | None = None,
) -> Tensor:
    """Goal logits of shape (N, H, W) for a batch of co-observed agents.

    ``channels`` may carry a precomputed ``encode_gpm_input`` result (the
    encoding is a pure function of the observations, so callers that revisit
    the same window can cache it).
    """
    if obs.ndim != 3 or obs.shape[1] != config.t_obs:
        raise ConfigError(f"observed batch must be (N, {config.t_obs}, 2), got {obs.shape}")
    if raster is not None and (raster.height % 4 or raster.width % 4):
        raise ConfigError(f"raster {raster.height}x{raster.width} must be divisible by 4")

    x = constant(encode_gpm_input(obs, raster, config) if channels is None else channels)
    c1 = relu(_conv3x3(x, params["gpm.enc1.w"], params["gpm.enc1.b"]))
    p1 = _pool2(c1)
    c2 = relu(_conv3x3(p1, params["gpm.enc2.w"], params["gpm.enc2.b"]))
    p2 = _pool2(c2)
    bott = relu(_conv3x3(p2, params["gpm.bott.w"], params["gpm.bott.b"]))
    d2 = relu(_conv3x3(concat([_upsample2(bott), c2], axis=3), params["gpm.dec2.w"], params["gpm.dec2.b"]))
    d1 = relu(_conv3x3(concat([_upsample2(d2), c1], axis=3), params["gpm.dec1.w"], params["gpm.dec1.b"]))
    n, h, w, cd = d1.shape
    logits = linear(d1.reshape((n * h * w, cd)), params["gpm.out.w"], params["gpm.out.b"])
    return logits.reshape((n, h, w))


def heatmap_from_logits(logits: np.ndarray) -> np.ndarray:
    """Per-cell sigmoid of (N, H, W) goal logits, stable at both tails."""
    grid = np.empty_like(logits, dtype=np.float64)
    pos = logits >= 0
    grid[pos] = 1.0 / (1.0 + np.exp(-logits[pos]))
    e = np.exp(logits[~pos])
    grid[~pos] = e / (1.0 + e)
    return grid


# -- goal sampling ---------------------------------------------------------


def ttst_sample(
    grids: np.ndarray, n_raw: int, k: int, seeds, kmeans_iters: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Goal sampling for the A heatmaps ``grids`` (A, H, W) of one window:
    each agent draws ``n_raw`` cells from its heatmap with a generator seeded
    from ``seeds[i]``, and one batched K-means (farthest-point seeding, at most
    ``kmeans_iters`` iterations) reduces each agent's draws to k goals.

    Returns goals (A, k, 2) and their cluster mass fractions (A, k), each
    agent's ordered by descending weight, then x, then y."""
    if not n_raw >= k >= 1:
        raise ConfigError(f"need n_raw >= k >= 1, got n_raw={n_raw}, k={k}")
    a, h, w = np.shape(grids)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    points = np.empty((a, n_raw, 2))
    for mass, rng, pts in zip(np.asarray(grids, dtype=np.float64), rngs, points, strict=True):
        total = mass.sum()
        if total <= 0:
            raise DataError("ttst_sample: heatmap has no positive mass")
        rows, cols = np.divmod(rng.choice(h * w, size=n_raw, p=(mass / total).reshape(-1)), w)
        pts[:] = np.stack([cols, rows], axis=1) + rng.uniform(-0.5, 0.5, size=(n_raw, 2))

    centers, labels = _kmeans(points, k, rngs, max_iters=kmeans_iters)
    weights = np.stack([np.bincount(lab, minlength=k) for lab in labels]) / n_raw
    order = np.stack([np.lexsort((c[:, 1], c[:, 0], -w)) for c, w in zip(centers, weights)])
    return np.take_along_axis(centers, order[..., None], 1), np.take_along_axis(weights, order, 1)


# Relative and absolute slack on every distance bound, far above the few ulps
# of error in a computed distance: a point whose label could tie fails the
# bound test and has its distances computed.
_SLACK = 1e-9


def _kmeans(points: np.ndarray, k: int, rngs, max_iters: int):
    """Lloyd iterations with greedy farthest-point seeding on A point sets
    (A, n, 2) at once, one generator per set; a set stops once its labels do.

    Ties in seeding and assignment resolve to the lowest index; empty clusters
    reseed to the point farthest from every current center.

    The assignment is exact but pruned by Elkan's triangle-inequality bounds
    (ICML 2003): each point keeps an upper bound on its distance to its own
    centre and a lower bound on its distance to every other centre. After a
    centre update each centre's shift widens them; only points whose upper
    bound reaches a lower bound get their (k,) distances computed, with the
    dense arithmetic, so labels and centres equal a dense Lloyd loop's bit
    for bit. Every bound carries a relative and an absolute slack of
    ``_SLACK``. A set that reseeds a cluster recomputes all its points.
    """
    a, n, _ = points.shape
    px, py = points[:, :, 0], points[:, :, 1]
    sets = np.arange(a)
    centers = np.empty((a, k, 2))
    # (A, k, n): first the seeding's squared distances, which are the first
    # assignment's; from then on the lower bounds, the own centre's at +inf.
    lower = np.empty((a, k, n))
    pick = [rng.integers(n) for rng in rngs]
    for j in range(k):
        centers[:, j] = points[sets, pick]
        _sq_dist(px, py, centers[:, j], out=lower[:, j])
        d2 = lower[:, 0] if j == 0 else np.minimum(d2, lower[:, j])
        pick = np.argmax(d2, axis=1)

    labels = np.zeros((a, n), dtype=np.int64)
    upper = np.empty((a, n))
    full = np.ones(a, dtype=bool)  # bounds void: compute every point's distances
    live = sets
    for step in range(max_iters):
        m, old = len(live), centers[live]
        new_labels = labels[live]
        for i, s in enumerate(live):
            if full[s]:
                if step:
                    _sq_dist(px[s], py[s], old[i], out=lower[s])
                near = np.argmin(lower[s], axis=0)
                new_labels[i] = near
                upper[s] = _bounds(lower[s], near)
                full[s] = False
                continue
            rows = np.flatnonzero(upper[s] >= lower[s].min(axis=0))
            d2 = _sq_dist(px[s, rows], py[s, rows], old[i])
            near = np.argmin(d2, axis=0)
            new_labels[i, rows] = near
            upper[s, rows] = _bounds(d2, near)
            lower[s][:, rows] = d2
        # bincount sums each cluster in point order, as points[mask].mean(axis=0) does.
        flat = (new_labels + k * np.arange(m)[:, None]).reshape(-1)
        counts = np.bincount(flat, minlength=m * k)
        sums = [np.bincount(flat, c[live].reshape(-1), m * k) for c in (px, py)]
        centers[live] = (np.stack(sums, axis=1) / np.maximum(counts, 1)[:, None]).reshape(m, k, 2)
        for i in np.flatnonzero((counts.reshape(m, k) == 0).any(axis=1)):
            # Empty cluster j takes the farthest point, which leaves its own
            # cluster before the clusters after j are averaged.
            s, lab = live[i], new_labels[i]
            full[s] = True
            nearest = ((points[s, :, None] - old[i]) ** 2).sum(axis=2).min(axis=1)
            for j in range(k):
                mask = lab == j
                if mask.any():
                    centers[s, j] = points[s, mask].mean(axis=0)
                else:
                    far = int(np.argmax(nearest))
                    centers[s, j] = points[s, far]
                    lab[far] = j
        settled = (new_labels == labels[live]).all(axis=1)
        labels[live] = new_labels
        shift = np.sqrt(((centers[live] - old) ** 2).sum(axis=2)) * (1 + _SLACK) + _SLACK
        for i in np.flatnonzero(~settled):
            s = live[i]
            if not full[s]:
                upper[s] += shift[i, new_labels[i]]
                lower[s] -= shift[i, :, None]
        live = live[~settled]
        if not len(live):
            break
    return centers, labels


def _sq_dist(px: np.ndarray, py: np.ndarray, centers: np.ndarray, out=None) -> np.ndarray:
    """Squared distances (k, r) of r points to k centres (k, 2), or (A, n) of
    each set's points to its one centre (A, 2), as dx*dx + dy*dy: the float
    arithmetic of ((p - c) ** 2).sum(-1), so argmin breaks ties alike."""
    d2 = np.subtract(px, centers[:, :1], out=out)
    dy = py - centers[:, 1:]
    d2 *= d2
    dy *= dy
    return np.add(d2, dy, out=d2)


def _bounds(d2: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Turn squared distances (k, r) in place into lower bounds on each
    centre's distance, with the own centre ``near`` at +inf, and return upper
    bounds (r,) on the own centre's distance."""
    dist = np.sqrt(d2, out=d2)
    cols = np.arange(dist.shape[1])
    upper = dist[near, cols] * (1 + _SLACK) + _SLACK
    dist *= 1 - _SLACK
    dist -= _SLACK
    dist[near, cols] = np.inf
    return upper


# -- training target -----------------------------------------------------


def goal_target(gt_goal, grid, sigma: float) -> np.ndarray:
    """BCE target: Gaussian at the ground-truth goal, rescaled to peak 1."""
    heat = rasterize_gaussian(gt_goal, grid, sigma)
    return heat / heat.max()
