import pytest

from vista.config import ModelConfig
from vista.data import ScenarioSpec, synth_generate
from vista.model import init_params


@pytest.fixture
def tiny_model_config():
    return ModelConfig(t_obs=4, t_fut=3, grid=16)


@pytest.fixture
def tiny_scene(tiny_model_config):
    spec = ScenarioSpec(
        scenario="crossing", n_agents=2, speed=0.6, margin=1.0, grid=16, n_frames=7
    )
    return synth_generate(spec)[0]


@pytest.fixture
def tiny_params(tiny_model_config):
    return init_params(tiny_model_config, seed=0)


@pytest.fixture
def three_agent_scene():
    spec = ScenarioSpec(
        scenario="group", n_agents=3, speed=0.5, margin=1.5, grid=16, n_frames=7
    )
    return synth_generate(spec)[0]

