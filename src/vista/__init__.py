"""Recursive goal-conditioned multi-agent trajectory forecasting.

Goal heatmaps over a scene grid, goal-trajectory fusion,
social-token attention with exportable pairwise attention maps, recursive
displacement decoding, joint training, and a full evaluation-metric suite,
all on a small self-contained reverse-mode tensor engine.
"""

from .config import Config, DataConfig, EvalConfig, ModelConfig, TrainConfig
from .data import AgentTrack, ScenarioSpec, Scene, SceneRaster
from .metrics import EvalInput
from .model import Model, init_params
from .params import ParamStore
from .tpm import PredictionSet

__all__ = [
    "AgentTrack",
    "Config",
    "DataConfig",
    "EvalConfig",
    "EvalInput",
    "Model",
    "ModelConfig",
    "ParamStore",
    "PredictionSet",
    "ScenarioSpec",
    "Scene",
    "SceneRaster",
    "TrainConfig",
    "init_params",
]

__version__ = "0.1.0"
