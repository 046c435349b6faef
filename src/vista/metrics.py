"""Evaluation suite for multimodal multi-agent forecasts.

Displacement metrics follow the usual definitions: ADE/FDE average over
agents, samples, and (for ADE) steps; the best-of-k variants take the
per-agent minimum over samples before averaging. The binomial-weighted
expected-error curve E_K gives, for each K, the expected error of the best
trajectory among a uniformly random K-subset of the k samples; its closed
form requires the per-sample errors sorted ascending. Collision rate counts
ordered agent pairs whose predicted distance falls strictly below a
threshold calibrated so the ground truth itself has zero collisions.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .data import Scene, atomic_write, min_pairwise_distance
from .errors import DataError


@dataclass
class EvalInput:
    predictions: np.ndarray  # (N, k, T_fut, 2)
    ground_truth: np.ndarray  # (N, T_fut, 2)

    def __post_init__(self):
        self.predictions = np.asarray(self.predictions, dtype=np.float64)
        self.ground_truth = np.asarray(self.ground_truth, dtype=np.float64)
        n, k, t, two = self.predictions.shape if self.predictions.ndim == 4 else (0, 0, 0, 0)
        if k < 1 or two != 2 or self.ground_truth.shape != (n, t, 2):
            raise DataError(
                f"predictions must be (N, k >= 1, T, 2) and ground truth (N, T, 2); got "
                f"{self.predictions.shape} and {self.ground_truth.shape}"
            )
        self.n_agents, self.k, self.t_fut = n, k, t
        # (N, k, T) l2 distances to the ground truth, read by every displacement metric;
        # a non-finite input or a distance beyond float64 leaves a non-finite one.
        with np.errstate(over="ignore", invalid="ignore"):
            diff = self.predictions - self.ground_truth[:, None, :, :]
            self.errors = np.sqrt((diff**2).sum(-1))
        if not np.isfinite(self.errors).all():
            raise DataError("evaluation inputs and their distances must be finite in float64")


# -- displacement metrics ---------------------------------------------------


def ade(ev: EvalInput) -> float:
    return float(ev.errors.mean())


def fde(ev: EvalInput) -> float:
    return float(ev.errors[:, :, -1].mean())


def per_sample_ade(ev: EvalInput) -> np.ndarray:
    """(N, k) mean-over-steps l2 error per trajectory sample."""
    return ev.errors.mean(axis=2)


def min_ade_k(ev: EvalInput) -> float:
    return float(per_sample_ade(ev).min(axis=1).mean())


def min_fde_k(ev: EvalInput) -> float:
    return float(ev.errors[:, :, -1].min(axis=1).mean())


# -- binomial-weighted expected-error curve ----------------------------------


def expected_error_curve(sample_errors) -> np.ndarray:
    """E_K for K = 1..k from per-sample errors shaped (..., k), one curve
    along the last axis per leading index.

    E_K is the expected error of the best sample within a uniformly random
    K-subset: with errors sorted ascending, the j-th smallest is that minimum
    with probability C(k-j, K-1)/C(k, K). E_1 is the plain mean and E_k the
    minimum, exactly.
    """
    errors = np.sort(np.asarray(sample_errors, dtype=np.float64), axis=-1)
    k = errors.shape[-1]
    ranks = np.arange(1, k + 1)
    binom = np.frompyfunc(comb, 2, 1)
    counts = binom(k - ranks, ranks[:, None] - 1).astype(np.float64)  # row K-1, column j-1
    return np.sum(counts * errors[..., None, :], axis=-1) / binom(k, ranks).astype(np.float64)


def auc(ev: EvalInput):
    """(auc, curve): curve[K-1] = sum over agents of E_K; auc = its sum.

    Also exposed per agent-mean as ``auc_mean`` in reports, since the summed
    form scales with the number of agents.
    """
    curve = expected_error_curve(per_sample_ade(ev)).sum(axis=0)
    return float(curve.sum()), curve


# -- collisions ---------------------------------------------------------------


def calibrate_epsilon(scenes) -> float:
    """Largest threshold with zero ground-truth collisions, minus a 1e-9 guard
    and at least 0: with two coincident agents the minimum distance is 0, and
    under the strict ``<`` of ``collision_rates`` 0 counts no collision.

    The infimum runs over all co-observed timesteps and agent pairs of every
    scene (full windows, observation and future alike), so one window with
    two coincident agents sets the threshold to 0 for all windows, and every
    collision rate then reads 0 whatever the predictions: pass an explicit
    epsilon (``evaluate --epsilon``) on such data. A threshold of 0 warns.
    """
    best = min((min_pairwise_distance(scene) for scene in scenes), default=math.inf)
    if not math.isfinite(best):
        raise DataError("epsilon calibration needs at least one scene with two co-present agents")
    epsilon = max(best - 1e-9, 0.0)
    if epsilon == 0.0:
        warnings.warn(
            "calibrated epsilon is 0 because two ground-truth agents coincide, so every "
            "collision rate will read 0; --epsilon sets the threshold"
        )
    return epsilon


def collision_rates(ev: EvalInput, epsilon: float) -> np.ndarray:
    """Per joint sample, the fraction of (ordered pair, step) events closer
    than ``epsilon``: the (k,) scores sum_t sum_{i != j} 1[dist < eps] / (N (N-1) T).
    Their mean is the per-sample-mean rate and their minimum the best-sample
    rate. A strict inequality applies at the boundary.
    """
    if not epsilon >= 0:  # also rejects NaN
        raise DataError(f"epsilon must be >= 0, got {epsilon}")
    n, k, t, _ = ev.predictions.shape
    if n < 2:
        warnings.warn("collision rate over fewer than 2 agents is defined as 0")
        return np.zeros(k)
    diff = ev.predictions[:, None] - ev.predictions[None, :]
    close = np.sqrt((diff**2).sum(-1)) < epsilon  # (N, N, k, T)
    close[np.diag_indices(n)] = False
    return close.sum(axis=(0, 1, 3)) / (n * (n - 1) * t)


# -- distribution metrics ------------------------------------------------------


def kde_nll(ev: EvalInput) -> float:
    """Gaussian KDE negative log-likelihood of the ground truth.

    Per agent and step, an isotropic kernel over the k sample positions with
    a Scott-style scalar bandwidth k^(-1/3) * std (floored at 1e-3) scores the true
    position; the NLL averages over steps and agents.
    """
    if ev.k < 2:
        raise DataError("kde_nll needs k >= 2 samples")
    cloud = ev.predictions  # (N, k, T, 2)
    h = np.maximum(ev.k ** (-1.0 / 3.0) * np.sqrt(cloud.var(axis=1).mean(-1)), 1e-3)
    d2 = ((cloud - ev.ground_truth[:, None]) ** 2).sum(-1)  # (N, k, T)
    density = np.exp(-0.5 * d2 / (h * h)[:, None]).mean(axis=1) / (2.0 * math.pi * h * h)
    return float(-np.log(np.maximum(density, 1e-300)).mean())


def miss_rate(ev: EvalInput, threshold: float) -> float:
    """Fraction of agents whose best-of-k final displacement exceeds the threshold."""
    if not threshold > 0:  # also rejects NaN
        raise DataError(f"miss threshold must be positive, got {threshold}")
    final = ev.errors[:, :, -1].min(axis=1)
    return float((final > threshold).mean())


# -- aggregation and reporting --------------------------------------------------


def evaluate_windows(evals, epsilon: float, miss_threshold: float = 2.0) -> dict:
    """Aggregate per-window metrics over a dataset.

    Per-agent-mean metrics pool agents across windows; AUC (a sum over
    agents) adds up; collision rates pool (pair, step) events by weighting
    each window with its N(N-1)T count. ``cr`` is the per-sample-mean rate
    ``cr_mean``; ``cr_best`` scores each window's best sample.
    """
    if not evals:
        raise DataError("no evaluation windows")
    agents = np.array([ev.n_agents for ev in evals], dtype=np.float64)
    weights = agents / agents.sum()

    def pooled(fn):
        return float(sum(w * fn(ev) for w, ev in zip(weights, evals)))

    totals, curves = zip(*(auc(ev) for ev in evals))
    auc_total, curve_total = sum(totals), sum(curves)

    cr_w = np.array([ev.n_agents * (ev.n_agents - 1) * ev.t_fut for ev in evals], dtype=np.float64)
    if cr_w.sum() > 0:
        rates = [collision_rates(ev, epsilon) if w else np.zeros(1) for ev, w in zip(evals, cr_w)]
        cr_mean = float((np.array([r.mean() for r in rates]) * cr_w).sum() / cr_w.sum())
        cr_best = float((np.array([r.min() for r in rates]) * cr_w).sum() / cr_w.sum())
    else:
        warnings.warn("no window has two co-present agents; collision rates are 0")
        cr_mean = cr_best = 0.0

    return {
        "ade": pooled(ade),
        "fde": pooled(fde),
        "min_ade": pooled(min_ade_k),
        "min_fde": pooled(min_fde_k),
        "auc": auc_total,
        "auc_mean": auc_total / float(agents.sum()),
        "auc_curve": [float(v) for v in curve_total],
        "cr": cr_mean,
        "cr_mean": cr_mean,
        "cr_best": cr_best,
        "kde_nll": pooled(kde_nll) if evals[0].k >= 2 else None,
        "miss_rate": pooled(lambda e: miss_rate(e, miss_threshold)),
        "epsilon": float(epsilon),
        "n_agents": int(agents.sum()),
        "n_scenes": len(evals),
    }


def save_report_json(path, report: dict):
    atomic_write(path, json.dumps(report, sort_keys=True, indent=1) + "\n")


def save_report_csv(path, report: dict):
    keys = [k for k in sorted(report) if k != "auc_curve"]
    header = ",".join(keys)
    row = ",".join(repr(report[k]) if isinstance(report[k], float) else str(report[k]) for k in keys)
    curve = ",".join(repr(v) for v in report.get("auc_curve", []))
    atomic_write(path, f"{header}\n{row}\nauc_curve,{curve}\n")


def eval_from_scene(scene: Scene, predictions: np.ndarray, t_obs: int) -> EvalInput:
    gt = scene.positions()[:, t_obs:, :]
    return EvalInput(predictions=predictions, ground_truth=gt)
