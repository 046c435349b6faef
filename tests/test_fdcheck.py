import numpy as np
import pytest

from fdcheck import finite_difference_check
from reference_ops import constant, mul, reduce_sum, sub

from vista.config import ModelConfig
from vista.model import init_params
from vista.params import ParamStore
from vista.tpm import rollout


def test_quadratic_loss_is_near_exact():
    store = ParamStore({"x": np.array([1.0, 2.0, 3.0])})

    def loss():
        x = store["x"]
        return reduce_sum(mul(x, x))

    err = finite_difference_check(store, loss, epsilon=1e-5)
    assert err < 1e-8


def test_epsilon_outside_range_rejected():
    store = ParamStore({"x": np.ones(2)})
    with pytest.raises(ValueError):
        finite_difference_check(store, lambda: reduce_sum(store["x"]), epsilon=1e-2)


def test_goal_fusion_block_gradients(three_agent_scene):
    # The fusion block's parameters through the rollout node: its temporal
    # attention and the goal term it adds at every step.
    cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    goals = three_agent_scene.positions()[None, :, -1] + rng.normal(size=(1, 3, 2))
    target = rng.normal(size=(1, 3, cfg.t_fut, 2))
    names = [n for n in params.names() if n.startswith("tpm.fusion.")]

    def loss():
        diff = sub(rollout(three_agent_scene, goals, params, cfg).positions, constant(target))
        return reduce_sum(mul(diff, diff))

    err = finite_difference_check(params, loss, epsilon=1e-5, names=names, seed=3)
    assert err < 1e-4
    # The check leaves the analytic gradients in the store: the loss must
    # reach every parameter of the goal term.
    reached = ["tpm.fusion.cross." + w for w in ("wv", "bv", "wo", "bo")]
    reached += ["tpm.fusion.norm.gamma", "tpm.fusion.norm.beta"]
    for name in reached:
        assert np.abs(params[name].grad).max() > 0, name


def test_full_joint_loss_three_agent_scene(three_agent_scene):
    from vista.config import TrainConfig
    from vista.training import window_loss_graph

    cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
    params = init_params(cfg, seed=1)
    tcfg = TrainConfig()

    def loss():
        return window_loss_graph(params, cfg, tcfg, three_agent_scene)[0]

    err = finite_difference_check(params, loss, epsilon=1e-5, max_coords_per_param=3, seed=0)
    assert err < 1e-4
