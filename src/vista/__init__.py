"""Recursive goal-conditioned multi-agent trajectory forecasting.

Goal heatmaps over a scene grid, goal-trajectory fusion,
social-token attention with exportable pairwise attention maps, recursive
displacement decoding, joint training, and a full evaluation-metric suite,
all on a small self-contained reverse-mode tensor engine.
"""

from .config import Config, DataConfig, EvalConfig, ModelConfig, TrainConfig
from .data import AgentTrack, ScenarioSpec, Scene, SceneRaster
from .gpm import GoalHeatmap, GoalSample
from .metrics import EvalInput
from .model import Model, init_params
from .params import ParamStore
from .tpm import AttentionTrace, PredictionSet

__all__ = [
    "AgentTrack",
    "AttentionTrace",
    "Config",
    "DataConfig",
    "EvalConfig",
    "EvalInput",
    "GoalHeatmap",
    "GoalSample",
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
