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
from .errors import ConfigError, DataError
from .gpm import encode_gpm_input, gpm_forward_batch, heatmap_from_logits, init_gpm_params, ttst_sample
from .params import ParamStore
from .tensor import no_grad
from .tpm import PredictionSet, init_tpm_params, rollout


def init_params(config: ModelConfig, seed: int = 0) -> ParamStore:
    """The initial store: the ``gpm.*`` arrays (with use_goal), then the ``tpm.*`` ones."""
    config.validate()
    rng = np.random.default_rng(seed)
    arrays = {}
    if config.use_goal:
        init_gpm_params(arrays, config, rng)
    init_tpm_params(arrays, config, rng)
    return ParamStore(arrays)


def stable_seed(*parts) -> int:
    """Deterministic 32-bit seed derived from strings/ints."""
    text = "\x1f".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


@dataclass
class Model:
    config: ModelConfig
    params: ParamStore

    def heatmaps(self, scene: Scene) -> np.ndarray:
        """(N, H, W) goal probabilities, one map per agent in scene order."""
        if not self.config.use_goal:
            raise ConfigError("goal conditioning is disabled in this configuration")
        obs = scene.positions()[:, : self.config.t_obs, :]
        channels = encode_gpm_input(obs, scene.raster, self.config, scene.name())
        with no_grad():
            logits = gpm_forward_batch(channels, self.params)
        return heatmap_from_logits(logits.data)

    def sample_goals(self, scene: Scene, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """TTST goals (N, k, 2) and weights (N, k); each agent's sampler is
        seeded from (seed, scene key, agent_id). DataError names the window
        when an agent's heatmap has no mass to sample."""
        seeds = [stable_seed(seed, scene.key(), agent_id) for agent_id in scene.agent_ids]
        grids = self.heatmaps(scene)
        try:
            return ttst_sample(grids, self.config.n_raw_samples, k, seeds, self.config.kmeans_iters)
        except DataError as exc:
            raise DataError(f"{scene.name()}: {exc}") from None

    def predict(
        self, scene: Scene, k: int, seed: int, capture_trace: bool = False
    ) -> PredictionSet:
        """k joint samples of the scene's future; sample j pairs the j-th
        goal of every agent, and all k run as one batched rollout. Without
        goal conditioning the k samples coincide, so one rollout is repeated
        k times. Raises DataError on an observed position outside the grid,
        ``encode_gpm_input``'s on a window the goal module cannot read, and
        ``sample_goals``'s on a heatmap with no mass."""
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        reject_off_grid(scene, self.config.t_obs, self.config.grid)
        goals = weights = None
        if self.config.use_goal:
            goals, weights = self.sample_goals(scene, k, seed)
            goals = goals.transpose(1, 0, 2)
        with no_grad():
            result = rollout(scene, goals, self.params, self.config, capture_trace)
        trajectories, traces = result.trajectories, result.traces
        if goals is None:
            trajectories = np.repeat(trajectories, k, axis=0)
            traces = None if traces is None else np.repeat(traces, k, axis=0)
        return PredictionSet(
            list(scene.agent_ids), trajectories.transpose(1, 0, 2, 3), traces, weights
        )

    def rollout_with_goals(self, scene: Scene, goals):
        """``tpm.rollout`` of the (B, N, 2) ``goals`` without a graph."""
        with no_grad():
            return rollout(scene, goals, self.params, self.config)
