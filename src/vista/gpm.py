"""Goal prediction: per-agent destination heatmaps over the scene grid, the
Gaussian targets of their training loss, and multi-goal (TTST) sampling.

The heatmap head is a small encoder-decoder with skip connections (two
2x-downsampling stages, channel widths from the config), recorded as one
graph node, "gpm", from the input channels to the (N, H, W) logits. Each of
its five 3x3 convolutions is one im2col matmul over the zero-padded input's
3x3 neighbourhoods, then relu; pooling is a 2x2 block mean, and upsampling
nearest-neighbour duplication, written with its skip connection straight
into the padded input of the next convolution; a 1x1 head gives the logits.
The node keeps each convolution's padded input, not its 9x larger im2col
matrix, and its hand-written backward walks the layers in reverse: a weight
gradient rebuilds its layer's matrix for one matmul, and an input gradient
convolves the masked output gradient with the flipped kernel. No agent's
logits depend on another's, so inference runs the network on blocks of whole
agents and holds no whole-window layer. Grid cell (r, c) is centered at (x=c,
y=r).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import ModelConfig
from .data import SceneRaster, rasterize_gaussian, uniform_raster
from .errors import ConfigError, DataError
from .params import ParamStore, glorot_uniform
from .tensor import Tensor, _node, _recording, _relu_data


# -- parameters -----------------------------------------------------------


def init_gpm_params(arrays: dict, config: ModelConfig, rng: np.random.Generator):
    """Add the goal module's initial arrays to ``arrays``, in rng draw order."""
    c_in = config.n_classes + config.t_obs
    w1, w2 = config.enc_widths
    wd = config.dec_width

    def conv(name, cin, cout):
        fan_in, fan_out = 9 * cin, 9 * cout
        arrays[f"gpm.{name}.w"] = glorot_uniform(rng, fan_in, fan_out, (3, 3, cin, cout))
        arrays[f"gpm.{name}.b"] = np.zeros(cout)

    conv("enc1", c_in, w1)
    conv("enc2", w1, w2)
    conv("bott", w2, w2)
    conv("dec2", w2 + w2, wd)
    conv("dec1", wd + w1, wd)
    arrays["gpm.out.w"] = glorot_uniform(rng, wd, 1, (wd, 1))
    arrays["gpm.out.b"] = np.zeros(1)


# -- the encoder-decoder node ------------------------------------------------

# The five 3x3 convolutions from input to output, then the 1x1 head.
_LAYERS = ("enc1", "enc2", "bott", "dec2", "dec1", "out")


def _columns(xp: np.ndarray) -> np.ndarray:
    """The (n*h*w, 9*c) matrix that holds each pixel's 3x3 neighbourhood in
    the zero-padded ``xp`` (n, h+2, w+2, c), in the (di, dj, c) order of a
    (3, 3, c, c_out) kernel flattened row-major."""
    n, hp, wp, c = xp.shape
    h, wd = hp - 2, wp - 2
    sn, sh, sw, sc = xp.strides
    windows = as_strided(  # (n, h, wd, di, dj, c), reading only inside xp
        xp, (n, h, wd, 3, 3, c), (sn, sh, sw, sh, sw, sc), writeable=False
    )
    return windows.reshape(n * h * wd, 9 * c)


def _padded(x: np.ndarray) -> np.ndarray:
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2, w + 2, c))
    xp[:, 1:-1, 1:-1] = x
    return xp


def _pool2(x: np.ndarray) -> np.ndarray:
    n, h, w, c = x.shape
    return x.reshape(n, h // 2, 2, w // 2, 2, c).mean(axis=(2, 4))


def _upsample2_concat(low: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """The zero-padded input of a decoder convolution: ``low`` upsampled 2x
    by nearest-neighbour duplication, then ``skip``, along channels."""
    n, h, w, c_skip = skip.shape
    c_low = low.shape[-1]
    xp = np.zeros((n, h + 2, w + 2, c_low + c_skip))
    for di in (0, 1):
        for dj in (0, 1):
            xp[:, 1 + di : -1 : 2, 1 + dj : -1 : 2, :c_low] = low
    xp[:, 1:-1, 1:-1, c_low:] = skip
    return xp


# The fewest input-grid cells in an inference block. On OpenBLAS 0.3.31 every
# layer's product over such a block (64+ rows at the bottleneck) takes the
# whole product's path, so logits equal the recorded ones bit for bit.
_BLOCK_ROWS = 1024


def _conv(xp: np.ndarray, w: np.ndarray, b=None, keep: list | None = None) -> np.ndarray:
    """The 3x3 convolution (n, h, w, c_out) of the zero-padded ``xp`` (n,
    h+2, w+2, c) with the kernel ``w`` (3, 3, c, c_out): one im2col matmul,
    whose output then takes a bias ``b`` and relu in place. ``xp``, then the
    output, join the list ``keep`` unless that is None."""
    n, hp, wp, _ = xp.shape
    out = np.empty((n * (hp - 2) * (wp - 2), w.shape[-1]))  # made before the matrix: lower peak RSS
    np.matmul(_columns(xp), w.reshape(-1, w.shape[-1]), out=out)
    if b is not None:
        out += b
        out[...] = _relu_data(out)
    out = out.reshape(n, hp - 2, wp - 2, -1)
    if keep is not None:
        keep += [xp, out]
    return out


def _conv_relu_grads(g, xp, out, w, input_grad=True):
    """Gradients (input, weight, bias) of relu(``_conv(xp, w)`` + b), whose
    output is ``out``, for its output gradient ``g``; the input gradient is
    None without ``input_grad``. The weight gradient is one matmul over the
    rebuilt im2col matrix of ``xp``; the input gradient is the convolution of
    the masked ``g`` with w flipped in (di, dj) and transposed in channels."""
    n, h, wd, cout = out.shape
    gz = (g * (out > 0)).reshape(n * h * wd, cout)
    gx = None
    if input_grad:
        gx = _conv(_padded(gz.reshape(out.shape)), w[::-1, ::-1].transpose(0, 1, 3, 2))
    return gx, (_columns(xp).T @ gz).reshape(w.shape), gz.sum(axis=0)


def _pool2_grad(g: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """The gradient of an encoder output: ``g / 4`` over each 2x2 block of
    the mean pool it fed, plus ``skip``, its skip connection's gradient."""
    n, h, w, c = skip.shape
    return (skip.reshape(n, h // 2, 2, w // 2, 2, c) + (g / 4)[:, :, None, :, None]).reshape(skip.shape)


def _upsample2_grad(g: np.ndarray) -> np.ndarray:
    """Each 2x2 block's sum, the gradient of nearest-neighbour upsampling,
    added as (g00 + g01) + (g10 + g11): the order in which a chain of two
    duplicating concats sums it, so gradients match that chain bit for bit."""
    return (g[:, ::2, ::2] + g[:, ::2, 1::2]) + (g[:, 1::2, ::2] + g[:, 1::2, 1::2])


def check_raster(raster: SceneRaster | None, config: ModelConfig, source):
    """DataError naming ``source`` unless ``raster`` is None or has the
    model's ``n_classes`` classes and sides divisible by 4, which the goal
    module's two 2x poolings need."""
    if raster is not None and (
        raster.n_classes != config.n_classes or raster.height % 4 or raster.width % 4
    ):
        raise DataError(
            f"{source}: the model reads {config.n_classes}-class rasters with sides "
            f"divisible by 4, got {raster.height}x{raster.width}x{raster.n_classes}"
        )


def encode_gpm_input(
    obs: np.ndarray, raster: SceneRaster | None, config: ModelConfig, source="raster"
) -> np.ndarray:
    """The goal module's input (N, H, W, n_classes + t_obs): the raster's
    class channels, then one Gaussian channel per observed step of ``obs``
    (N, t_obs, 2) in grid-cell units; a scene without a raster gets a uniform
    one. DataError on another ``obs`` shape or a raster that ``check_raster``
    refuses, naming ``source``, the window's name."""
    if obs.ndim != 3 or obs.shape[1:] != (config.t_obs, 2):
        raise DataError(f"observed batch must be (N, {config.t_obs}, 2), got {obs.shape}")
    check_raster(raster, config, source)
    if raster is None:
        raster = uniform_raster(config.grid, config.n_classes)
    h, w, d = raster.scores.shape
    channels = np.empty((len(obs), h, w, d + config.t_obs))
    channels[..., :d] = raster.scores
    for i, t in np.ndindex(len(obs), config.t_obs):
        channels[i, :, :, d + t] = rasterize_gaussian(obs[i, t], (h, w), config.traj_sigma)
    return channels


def _block_logits(x: np.ndarray, data, keep: list | None) -> np.ndarray:
    """The (n, H, W) logits of the channels ``x`` of a block of n agents
    under the ``_LAYERS`` arrays ``data``; no layer outlives the call unless
    ``keep`` is a list, which ``_conv`` fills."""
    w1, b1, w2, b2, w3, b3, w4, b4, w5, b5, wo, bo = data
    c1 = _conv(_padded(x), w1, b1, keep)
    c2 = _conv(_padded(_pool2(c1)), w2, b2, keep)
    bott = _conv(_padded(_pool2(c2)), w3, b3, keep)
    d2 = _conv(_upsample2_concat(bott, c2), w4, b4, keep)
    d1 = _conv(_upsample2_concat(d2, c1), w5, b5, keep)
    return (np.matmul(d1.reshape(-1, d1.shape[-1]), wo) + bo).reshape(d1.shape[:3])


def gpm_forward_batch(channels: np.ndarray, params: ParamStore) -> Tensor:
    """Goal logits (N, H, W) of the ``encode_gpm_input`` channels of a batch
    of co-observed agents; a caller that revisits a window may cache its
    channels. The logits are one node whose parents are the twelve ``gpm.*``
    parameters. Recording runs the window as one block; otherwise each block
    of whole agents of at least ``_BLOCK_ROWS`` cells, the last taking the
    remainder, writes its logits into the output and keeps no intermediate."""
    weights = tuple(params[f"gpm.{layer}.{p}"] for layer in _LAYERS for p in "wb")
    data = [p.data for p in weights]
    kept = [] if _recording(weights) else None  # each layer's padded input and output
    n, h, w, _ = channels.shape
    per_block = -(-_BLOCK_ROWS // (h * w))  # agents in each block but the last
    starts = range(0, max(n // per_block, 1) * per_block, per_block) if kept is None else [0]
    logits = np.empty((n, h, w))
    for i, j in zip(starts, [*starts[1:], n]):
        logits[i:j] = _block_logits(channels[i:j], data, kept)

    def bwd(g):
        xp1, c1, xp2, c2, xp3, bott, xp4, d2, xp5, d1 = kept
        w1, _, w2, _, w3, _, w4, _, w5, _, wo, _ = data
        cd, cb = d1.shape[-1], bott.shape[-1]
        g = g.reshape(n * h * w, 1)
        g_out = (d1.reshape(n * h * w, cd).T @ g, g.sum(axis=0))
        gx5, *g_dec1 = _conv_relu_grads(np.matmul(g, wo.T).reshape(d1.shape), xp5, d1, w5)
        gx4, *g_dec2 = _conv_relu_grads(_upsample2_grad(gx5[..., :cd]), xp4, d2, w4)
        gx3, *g_bott = _conv_relu_grads(_upsample2_grad(gx4[..., :cb]), xp3, bott, w3)
        gx2, *g_enc2 = _conv_relu_grads(_pool2_grad(gx3, gx4[..., cb:]), xp2, c2, w2)
        _, *g_enc1 = _conv_relu_grads(_pool2_grad(gx2, gx5[..., cd:]), xp1, c1, w1, False)
        return (*g_enc1, *g_enc2, *g_bott, *g_dec2, *g_dec1, *g_out)

    return _node(logits, weights, bwd, "gpm")


def heatmap_from_logits(logits: np.ndarray) -> np.ndarray:
    """Per-cell sigmoid of goal logits z, stable at both tails: with
    e = exp(-|z|), 1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(logits))
    return np.where(logits >= 0, 1.0, e) / (1.0 + e)


# -- goal sampling ---------------------------------------------------------


def ttst_sample(
    grids: np.ndarray, n_raw: int, k: int, seeds, kmeans_iters: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Goal sampling for the A heatmaps ``grids`` (A, H, W) of one window:
    each agent draws ``n_raw`` cells from its heatmap with a generator seeded
    from ``seeds[i]``, and one batched K-means (farthest-point seeding, then
    at most ``kmeans_iters`` Lloyd iterations) reduces each agent's draws to
    k goals, equal bit for bit to a dense per-agent K-means's: each
    assignment is one float32 screen of every point, then the squared
    distances of the few points that the screen leaves unsettled.

    Returns goals (A, k, 2) and their cluster mass fractions (A, k), each
    agent's ordered by descending weight, then x, then y."""
    if not n_raw >= k >= 1:
        raise ConfigError(f"need n_raw >= k >= 1, got n_raw={n_raw}, k={k}")
    a, h, w = np.shape(grids)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    points = np.empty((a, n_raw, 2))
    grids = np.asarray(grids, dtype=np.float64)
    for i, (mass, rng, pts) in enumerate(zip(grids, rngs, points, strict=True)):
        total = mass.sum()
        if total <= 0:
            raise DataError(f"ttst_sample: the heatmap of agent row {i} has no positive mass")
        rows, cols = np.divmod(rng.choice(h * w, size=n_raw, p=(mass / total).reshape(-1)), w)
        pts[:] = np.stack([cols, rows], axis=1) + rng.uniform(-0.5, 0.5, size=(n_raw, 2))

    centers, labels = _kmeans(points, k, rngs, max_iters=kmeans_iters)
    weights = np.stack([np.bincount(lab, minlength=k) for lab in labels]) / n_raw
    order = np.stack([np.lexsort((c[:, 1], c[:, 0], -w)) for c, w in zip(centers, weights)])
    return np.take_along_axis(centers, order[..., None], 1), np.take_along_axis(weights, order, 1)


# The margin of the float32 scores, on points p and centres c centred on
# their set's mean mu. With u = 2^-24, each float32 input of a score
# |c-mu|^2 - 2(c-mu).(p-mu) is off by at most u relative, and a three-term
# float32 dot product adds at most 3u/(1-3u) of its terms' absolute sum, in
# any summation order, with or without FMA, so at any BLAS thread count.
# Those terms sum to at most 2|c-mu||p-mu| + |c-mu|^2 <= 2(|c-mu|^2 +
# |p-mu|^2), so each score is off by under 10u(|c-mu|^2 + |p-mu|^2) <= 10u S,
# where S is the set's largest |p-mu|^2 + |c-mu|^2. Two scores differ from
# their exact difference by under 20u S, adding the margin to the best score
# rounds by at most u(2S + margin), and the float64 centring and the
# reference's squared distances add about 1e-15 S: under 23u S = 1.4e-6 S in
# all, inside 2e-6 (1 + S). A wider margin sends more points on to the
# squared distances. Where S reaches _MAX_SCALE32 (or is NaN) a score's terms
# may overflow, so the margin is infinite and no point of that set passes.
_MARGIN32 = 2e-6
_MAX_SCALE32 = np.finfo(np.float32).max / 4


@np.errstate(over="ignore", invalid="ignore")  # the screen passes overflow on, unwarned
def _kmeans(points: np.ndarray, k: int, rngs, max_iters: int):
    """Lloyd iterations with greedy farthest-point seeding on A point sets
    (A, n, 2) at once, one generator per set; a set stops once its labels do.

    Ties in seeding and assignment resolve to the lowest index; empty clusters
    reseed to the point farthest from every current center.

    The assignment takes two steps. First, the screen ranks a set's centres
    by the score |c|^2 - 2c.p (the squared distance less the shared |p|^2),
    on points and centres centred on the set's float64 mean: one float32 (k,
    3) @ (3, n) product of (-2cx, -2cy, |c|^2) with (x, y, 1), then a float32
    product of the (1, j) of each centre j with the mask of scores within
    ``_MARGIN32`` of the best, which counts those centres and sums their
    indices. Where the count is 1, that sum is the label. Then every other
    point (a tie, a near tie, a NaN or an overflow) gets its (k,) squared
    distances and their lowest-index argmin in the dense loop's arithmetic,
    so labels and centres equal that loop's bit for bit.
    """
    a, n, _ = points.shape
    px, py = np.moveaxis(points, 2, 0).copy()
    sets = np.arange(a)
    centers = np.empty((a, k, 2))
    centers[:, 0] = points[sets, [rng.integers(n) for rng in rngs]]
    d2 = _sq_dist(px, py, centers[:, 0])
    for j in range(1, k):
        centers[:, j] = points[sets, np.argmax(d2, axis=1)]
        d2 = np.minimum(d2, _sq_dist(px, py, centers[:, j]))

    mu = points.mean(axis=1)
    cx, cy = px - mu[:, :1], py - mu[:, 1:]
    p2 = (cx * cx + cy * cy).max(axis=1)
    xy1 = np.stack([cx, cy, np.ones((a, n))], axis=1).astype(np.float32)
    tally = np.stack([np.ones(k), np.arange(k)]).astype(np.float32)
    offsets = k * sets[:, None]
    # live, lx, ly, lmu and lp2 hold the rows of the sets still iterating; a
    # set's labels are written to ``labels`` when it settles or the loop ends.
    labels = np.zeros((a, n), dtype=np.int64)
    live, lx, ly, lmu, lp2, prev = sets, px, py, mu, p2, labels
    for _ in range(max_iters):
        m, old = len(live), centers[live]
        shifted = old - lmu[:, None]
        c2 = (shifted * shifted).sum(axis=2)
        coef = np.concatenate([shifted * -2, c2[..., None]], axis=2).astype(np.float32)
        scale = 1 + lp2 + c2.max(axis=1)
        margin = np.where(scale < _MAX_SCALE32, _MARGIN32 * scale, np.inf).astype(np.float32)
        new_labels = np.empty((m, n), dtype=np.int64)
        for i in range(m):
            count, new_labels[i] = _screen(coef[i], xy1[i], margin[i], tally)
            rows = np.flatnonzero(count != 1)
            if len(rows):
                d2 = _sq_dist(lx[i, rows], ly[i, rows], old[i])
                new_labels[i, rows] = np.argmin(d2, axis=0)
        # bincount sums each cluster in point order, as points[mask].mean(axis=0) does.
        flat = (new_labels + offsets[:m]).reshape(-1)
        counts = np.bincount(flat, minlength=m * k)
        sums = [np.bincount(flat, c.reshape(-1), m * k) for c in (lx, ly)]
        centers[live] = (np.stack(sums, axis=1) / np.maximum(counts, 1)[:, None]).reshape(m, k, 2)
        if not counts.all():
            for i in np.flatnonzero((counts.reshape(m, k) == 0).any(axis=1)):
                # Empty cluster j takes the farthest point, which leaves its
                # own cluster before the clusters after j are averaged.
                s, lab = live[i], new_labels[i]
                nearest = ((points[s, :, None] - old[i]) ** 2).sum(axis=2).min(axis=1)
                for j in range(k):
                    mask = lab == j
                    if mask.any():
                        centers[s, j] = points[s, mask].mean(axis=0)
                    else:
                        far = int(np.argmax(nearest))
                        centers[s, j] = points[s, far]
                        lab[far] = j
        going = (new_labels != prev).any(axis=1)
        if not going.all():
            labels[live[~going]] = new_labels[~going]
            if not going.any():
                return centers, labels
            live, lx, ly, lmu, lp2, xy1, new_labels = (
                v[going] for v in (live, lx, ly, lmu, lp2, xy1, new_labels)
            )
        prev = new_labels
    labels[live] = prev
    return centers, labels


def _screen(coef: np.ndarray, xy1: np.ndarray, margin, tally: np.ndarray) -> np.ndarray:
    """The count (row 0) and index sum (row 1) of the centres whose float32
    scores ``coef`` @ ``xy1`` (k, r) come within ``margin`` of each point's
    best; ``tally`` holds (1, j) for each centre j."""
    score = coef @ xy1
    best = score.min(axis=0)
    best += margin
    return tally @ (score <= best).astype(np.float32)


def _sq_dist(px: np.ndarray, py: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (k, r) of r points to k centres (k, 2), or (A, n) of
    each set's points to its one centre (A, 2), as dx*dx + dy*dy: the float
    arithmetic of ((p - c) ** 2).sum(-1), so argmin breaks ties alike."""
    dx = px - centers[:, :1]
    dy = py - centers[:, 1:]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


# -- training target -----------------------------------------------------


def goal_target(gt_goal, grid, sigma: float) -> np.ndarray:
    """BCE target: Gaussian at the ground-truth goal, rescaled to peak 1."""
    heat = rasterize_gaussian(gt_goal, grid, sigma)
    return heat / heat.max()
