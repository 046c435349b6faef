import numpy as np
import pytest

from fdcheck import finite_difference_check

from vista.attention import KVCache, init_mha_params
from vista.config import ModelConfig
from vista.model import init_params
from vista.params import ParamStore
from vista.tensor import constant, reduce_sum
from vista.tpm import goal_feature, goal_trajectory_fusion


def test_quadratic_loss_is_near_exact():
    store = ParamStore()
    store.add("x", np.array([1.0, 2.0, 3.0]))

    def loss():
        x = store["x"]
        return reduce_sum(x * x)

    err = finite_difference_check(store, loss, epsilon=1e-5)
    assert err < 1e-8


def test_epsilon_outside_range_rejected():
    store = ParamStore()
    store.add("x", np.ones(2))
    with pytest.raises(ValueError):
        finite_difference_check(store, lambda: reduce_sum(store["x"]), epsilon=1e-2)


def test_goal_fusion_block_gradients():
    cfg = ModelConfig(t_obs=4, t_fut=3)
    rng = np.random.default_rng(0)
    store = ParamStore()
    init_mha_params(store, "tpm.fusion.self0", cfg.d_model, rng)
    init_mha_params(store, "tpm.fusion.cross", cfg.d_model, rng)
    store.add("tpm.fusion.norm.gamma", np.ones(cfg.d_model))
    store.add("tpm.fusion.norm.beta", np.zeros(cfg.d_model))

    history = rng.normal(size=(1, 5, cfg.d_model))
    goal = rng.normal(size=(1, 1, cfg.d_model))
    target = rng.normal(size=(1, cfg.d_model))

    def loss():
        goal_term = goal_feature(constant(goal), store)
        cache = KVCache(constant(history), history.shape[1], store, "tpm.fusion.self0")
        query = constant(history[:, -1])
        fused = goal_trajectory_fusion(query, cache, goal_term, store, cfg)
        diff = fused - constant(target)
        return reduce_sum(diff * diff)

    err = finite_difference_check(store, loss, epsilon=1e-5, seed=3)
    assert err < 1e-4
    # The check leaves the analytic gradients in the store: the loss must
    # reach every parameter of the goal term.
    reached = ["tpm.fusion.cross." + w for w in ("wv", "bv", "wo", "bo")]
    reached += ["tpm.fusion.norm.gamma", "tpm.fusion.norm.beta"]
    for name in reached:
        assert np.abs(store[name].grad).max() > 0, name


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
