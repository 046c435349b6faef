"""Model facade: parameter initialization and the prediction pipeline
(goal heatmaps -> sampled goals -> multimodal rollouts). Scene units are
raster cells, so positions and goals pass between the goal and trajectory
modules unconverted."""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .data import Scene, reject_off_grid
from .errors import ConfigError
from .gpm import (
    GoalHeatmap,
    GoalSample,
    gpm_forward_batch,
    heatmap_from_logits,
    init_gpm_params,
    ttst_sample,
)
from .params import ParamStore
from .tensor import no_grad
from .tpm import PredictionSet, init_tpm_params, predict_multimodal, rollout


def init_params(config: ModelConfig, seed: int = 0) -> ParamStore:
    config.validate()
    rng = np.random.default_rng(seed)
    store = ParamStore()
    if config.use_goal:
        init_gpm_params(store, config, rng)
    init_tpm_params(store, config, rng)
    return store


def stable_seed(*parts) -> int:
    """Deterministic 32-bit seed derived from strings/ints."""
    text = "\x1f".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


@dataclass
class Model:
    config: ModelConfig
    params: ParamStore

    def gt_goals(self, scene: Scene) -> np.ndarray:
        """Final ground-truth position per agent, scene units."""
        return scene.positions()[:, -1, :].copy()

    def heatmaps(self, scene: Scene) -> list[GoalHeatmap]:
        if not self.config.use_goal:
            raise ConfigError("goal conditioning is disabled in this configuration")
        obs = scene.positions()[:, : self.config.t_obs, :]
        with no_grad():
            logits = gpm_forward_batch(obs, scene.raster, self.params, self.config)
        return [
            heatmap_from_logits(logits.data[i], agent_id)
            for i, agent_id in enumerate(scene.agent_ids)
        ]

    def sample_goals(self, scene: Scene, k: int, seed: int) -> list[GoalSample]:
        """TTST goals per agent; each agent's sampler is seeded from
        (seed, scene key, agent_id)."""
        heatmaps = self.heatmaps(scene)
        grids = np.stack([hm.grid for hm in heatmaps])
        seeds = [stable_seed(seed, scene.key(), hm.agent_id) for hm in heatmaps]
        return ttst_sample(grids, self.config.n_raw_samples, k, seeds, self.config.kmeans_iters)

    def predict(
        self, scene: Scene, k: int, seed: int, capture_trace: bool = False
    ) -> PredictionSet:
        """k joint samples of the scene's future; raises DataError on an
        observed position outside the grid."""
        reject_off_grid(scene, self.config.t_obs, self.config.grid)
        if self.config.use_goal:
            goal_samples = self.sample_goals(scene, k, seed)
            with no_grad():
                return predict_multimodal(
                    scene, goal_samples, self.params, self.config, capture_trace
                )
        with no_grad():
            return predict_multimodal(
                scene, None, self.params, self.config, capture_trace, k=k
            )

    def rollout_with_goals(self, scene: Scene, goals, capture_trace: bool = False):
        with no_grad():
            return rollout(scene, goals, self.params, self.config, capture_trace)
