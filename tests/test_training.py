import gc

import numpy as np
import pytest
from reference_ops import reference_adam_step
from test_attention import set_random_biases
from test_gpm import zero_gpm_weights

from vista import training
from vista.config import Config, ModelConfig, TrainConfig
from vista.data import AgentTrack, ScenarioSpec, Scene, synth_generate
from vista.errors import DataError, DivergenceError
from vista.experiments import overfit_dataset
from vista.model import Model, init_params
from vista.params import ParamStore
from vista.tensor import backward
from vista.training import (
    Adam,
    EarlyStopper,
    PlateauHalver,
    train,
    window_constants,
    window_loss_graph,
)


def small_dataset(n_windows=4, seed=9, t_fut=3):
    spec = ScenarioSpec(
        scenario="crossing", n_agents=2, speed=0.5, margin=1.0, grid=16,
        n_frames=4 + t_fut, randomize=True, n_windows=n_windows, seed=seed,
    )
    return synth_generate(spec)


def small_config(**overrides):
    cfg = Config()
    cfg.model = ModelConfig(t_obs=4, t_fut=3, grid=16)
    cfg.train = TrainConfig(max_epochs=5, val_k=2, seed=0)
    for key, value in overrides.items():
        setattr(cfg.train, key, value)
    return cfg


def still_scene(offset=(0.0, 0.0), t_obs=4, t_fut=3):
    """Three agents that stand still while observed; their future is the last
    observed position moved by ``offset``."""
    starts = np.array([[1.0, 2.0], [5.0, 7.0], [9.0, 3.0]])
    frames = np.arange(t_obs + t_fut)
    tracks = []
    for agent, start in enumerate(starts):
        positions = np.repeat(start[None], len(frames), axis=0)
        positions[t_obs:] += offset
        tracks.append(AgentTrack(agent, positions, frames))
    return Scene("still", tracks)


def zero_decoder(params):
    for name in ("tpm.dec.w1", "tpm.dec.b1", "tpm.dec.w2", "tpm.dec.b2"):
        params[name].data[...] = 0.0
    return params


def moved_to(scene, agent, frame, xy):
    """A copy of ``scene`` with one position replaced."""
    tracks = [AgentTrack(t.agent_id, t.positions.copy(), t.frame_ids) for t in scene.tracks]
    tracks[agent].positions[frame] = xy
    return Scene(scene.scene_id, tracks, raster=scene.raster)


class TestLibraryRejectsOffGrid:
    """``Model.predict`` and ``train`` reject off-grid input themselves, so a
    caller that bypasses the CLI gets the same DataError instead of a goal
    module that clamps the position into the grid."""

    def test_predict_rejects_an_observed_position_only(self):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16, n_raw_samples=100)
        model = Model(cfg, init_params(cfg, seed=0))
        scene = still_scene()
        with pytest.raises(DataError, match="agent 1 at frame 2 .* outside the 16x16 raster"):
            model.predict(moved_to(scene, 1, 2, (16.0, 7.0)), k=2, seed=0)
        model.predict(moved_to(scene, 1, 5, (16.0, 7.0)), k=2, seed=0)

    @pytest.mark.parametrize("which", ["train", "validation"])
    def test_train_rejects_any_position_of_a_window(self, which):
        scenes = small_dataset(3)
        bad = moved_to(scenes[0], 0, 6, (-1.0, 3.0))
        fit, val = ([bad, scenes[1]], scenes[2:]) if which == "train" else (scenes[1:], [bad])
        with pytest.raises(DataError, match="agent 0 at frame 6 .* outside the 16x16 raster"):
            train(fit, val, small_config(max_epochs=1))


class TestJointLoss:
    """With a zero decoder every agent stays at its last observed position."""

    def test_exact_prediction_gives_zero_traj_part(self):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16, use_goal=False)
        params = zero_decoder(init_params(cfg, seed=0))
        total, goal_part, traj_part = window_loss_graph(
            params, cfg, TrainConfig(lambda_goal=1e3, lambda_traj=1.0), still_scene()
        )
        assert traj_part == 0.0
        assert goal_part == 0.0
        assert total.item() == 0.0

    def test_constant_offset_three_four_gives_25(self):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = zero_decoder(init_params(cfg, seed=0))
        total, _, traj_part = window_loss_graph(
            params, cfg, TrainConfig(lambda_goal=0.0, lambda_traj=1.0), still_scene((3.0, 4.0))
        )
        assert traj_part == 25.0
        assert total.item() == 3 * 25.0  # sum over agents

    def test_lambda_goal_zero_drops_goal_term(self, tiny_scene):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = init_params(cfg, seed=0)
        n = tiny_scene.n_agents
        total0, goal_part0, traj_part = window_loss_graph(
            params, cfg, TrainConfig(lambda_goal=0.0, lambda_traj=2.0), tiny_scene
        )
        assert goal_part0 == 0.0
        assert total0.item() == pytest.approx(2.0 * n * traj_part, rel=1e-12)
        total, goal_part, traj_part1 = window_loss_graph(
            params, cfg, TrainConfig(lambda_goal=1e3, lambda_traj=2.0), tiny_scene
        )
        assert goal_part > 0
        assert traj_part1 == traj_part
        assert total.item() == pytest.approx(1e3 * n * goal_part + 2.0 * n * traj_part, rel=1e-12)


class TestGradientStructure:
    def test_total_gradient_is_linear_combination(self, tiny_scene):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = init_params(cfg, seed=0)

        def grads(lambda_goal, lambda_traj):
            params.zero_grad()
            total, _, _ = window_loss_graph(
                params, cfg, TrainConfig(lambda_goal=lambda_goal, lambda_traj=lambda_traj), tiny_scene
            )
            backward(total)
            return {n: params[n].grad.copy() for n in params.names()}

        g_goal = grads(1.0, 0.0)
        g_traj = grads(0.0, 1.0)
        a, b = 700.0, 2.5
        g_mix = grads(a, b)
        for name in params.names():
            np.testing.assert_allclose(
                g_mix[name], a * g_goal[name] + b * g_traj[name],
                atol=1e-10 * max(1.0, a),
            )

    def test_adam_step_isolation_between_loss_paths(self, tiny_scene):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)

        def step_with(lambda_goal, lambda_traj):
            params = init_params(cfg, seed=0)
            before = params.copy_values()
            adam = Adam(params, TrainConfig())
            params.zero_grad()
            total, _, _ = window_loss_graph(
                params, cfg, TrainConfig(lambda_goal=lambda_goal, lambda_traj=lambda_traj), tiny_scene
            )
            backward(total)
            adam.step(1e-3)
            return before, params

        before, after = step_with(1.0, 0.0)  # goal loss only
        for name in after.names():
            changed = not np.array_equal(before[name], after[name].data)
            assert changed == name.startswith("gpm."), name

        # The fusion's one-key cross-attention reduces to its value/output
        # path (tpm.goal_feature), which no longer reads the query/key
        # projections; they stay in the store for checkpoint compatibility.
        inert = {"tpm.fusion.cross.wq", "tpm.fusion.cross.wk", "tpm.fusion.cross.bq"}
        before, after = step_with(0.0, 1.0)  # trajectory loss only
        for name in after.names():
            changed = not np.array_equal(before[name], after[name].data)
            if name in inert or name.startswith("gpm."):
                assert not changed, name
            else:
                assert changed, name

    def test_training_window_graph_stays_small(self):
        # Each GPM convolution is one node and the whole rollout is one more:
        # one node per rollout step and layer recorded 95 nodes, re-embedding
        # the sequence every step 174, and primitive chains 333.
        cfg = ModelConfig()
        total, _, _ = window_loss_graph(
            init_params(cfg, seed=0), cfg, TrainConfig(), overfit_dataset(1)[0]
        )
        seen, stack, non_leaf = {id(total)}, [total], 0
        while stack:
            node = stack.pop()
            non_leaf += bool(node._parents)
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        assert non_leaf <= 46

    def test_training_window_graph_has_no_reference_cycles(self, three_agent_scene):
        # A graph node that referred back to its ancestors (say, through the
        # rollout's key/value cache) would leave every window's graph to the
        # cycle collector instead of freeing it when the window ends.
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = init_params(cfg, seed=0)
        gc.collect()
        gc.disable()
        try:
            total, _, _ = window_loss_graph(params, cfg, TrainConfig(), three_agent_scene)
            backward(total)
            del total
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSchedules:
    def test_plateau_halver_fires_at_patience_plus_one(self):
        halver = PlateauHalver(patience=30, factor=0.5)
        lr = 1.0
        fired_at = []
        for epoch in range(1, 100):
            lr_new = halver.update(5.0, lr)
            if lr_new != lr:
                fired_at.append(epoch)
            lr = lr_new
        assert fired_at[:3] == [31, 61, 91]

    def test_early_stopper_fires_patience_after_best(self):
        stopper = EarlyStopper(patience=75)
        stopped_at = None
        for epoch in range(1, 200):
            if stopper.update(3.0, epoch):
                stopped_at = epoch
                break
        assert stopped_at == 76
        assert stopper.best_epoch == 1

    def test_improvements_reset_the_counters(self):
        stopper = EarlyStopper(patience=3)
        values = [5.0, 4.0, 4.5, 4.5, 3.9, 4.2, 4.2, 4.2]
        fired = [stopper.update(v, i + 1) for i, v in enumerate(values)]
        assert fired == [False] * 7 + [True]
        assert stopper.best_epoch == 5

    def test_frozen_training_halves_lr_at_plateau_boundary(self):
        scenes = small_dataset(2)
        cfg = small_config(
            lambda_goal=0.0, lambda_traj=0.0, max_epochs=33,
            plateau_patience=4, early_stop_patience=50,
        )
        _, report = train(scenes, scenes, cfg)
        lrs = [r.lr for r in report.records]
        assert lrs[:4] == [cfg.train.lr] * 4  # epochs 1..4 untouched
        assert lrs[4] == pytest.approx(cfg.train.lr / 2)  # halved at epoch 5
        assert lrs[8] == pytest.approx(cfg.train.lr / 4)  # and again at epoch 9

    def test_frozen_training_early_stops_exactly_after_patience(self):
        scenes = small_dataset(2)
        cfg = small_config(
            lambda_goal=0.0, lambda_traj=0.0, max_epochs=50,
            plateau_patience=100, early_stop_patience=6,
        )
        _, report = train(scenes, scenes, cfg)
        assert report.stop_reason == "early_stop"
        assert len(report.records) == 7  # best at epoch 1 + 6 non-improving
        assert report.best_epoch == 1

    def test_lr_non_increasing_invariant(self):
        scenes = small_dataset(3)
        cfg = small_config(max_epochs=12, plateau_patience=2)
        _, report = train(scenes, scenes, cfg)
        lrs = [r.lr for r in report.records]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))


class TestTrainLoop:
    def test_deterministic_given_seed(self):
        scenes = small_dataset(3)
        cfg = small_config(max_epochs=3)
        best1, rep1 = train(scenes, scenes, cfg)
        best2, rep2 = train(scenes, scenes, cfg)
        assert [r.total for r in rep1.records] == [r.total for r in rep2.records]
        for name in best1.names():
            np.testing.assert_array_equal(best1[name].data, best2[name].data)

    def test_encodes_each_window_once_and_leaves_scenes_alone(self, monkeypatch):
        import vista.training as training

        scenes = small_dataset(3)
        attributes = [set(vars(s)) for s in scenes]
        encoded = []
        real = training.encode_gpm_input
        monkeypatch.setattr(
            training, "encode_gpm_input", lambda *a: encoded.append(1) or real(*a)
        )
        train(scenes[:2], scenes[2:], small_config(max_epochs=3))
        assert len(encoded) == 2
        assert [set(vars(s)) for s in scenes] == attributes

    def test_window_loss_with_given_channels_is_bitwise_equal(self, tiny_scene):
        # The cached constants carry the GPM channels and the goal targets.
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = init_params(cfg, seed=1)
        tcfg = TrainConfig()

        def loss_and_grads(*constants):
            params.zero_grad()
            total, goal_part, traj_part = window_loss_graph(params, cfg, tcfg, tiny_scene, *constants)
            backward(total)
            return (total.item(), goal_part, traj_part), [params[n].grad.tobytes() for n in params.names()]

        assert loss_and_grads(window_constants(tiny_scene, cfg)) == loss_and_grads()

    def test_loss_decreases_on_small_overfit(self):
        scenes = small_dataset(4)
        cfg = small_config(max_epochs=40, val_minade_every=10)
        _, report = train(scenes, scenes, cfg)
        assert report.records[-1].total < 0.6 * report.records[0].total

    def test_divergence_aborts_with_report(self):
        scenes = small_dataset(2)
        cfg = small_config(max_epochs=5, lr=1e6)  # guaranteed blow-up
        with pytest.raises(DivergenceError) as exc_info:
            train(scenes, scenes, cfg)
        assert exc_info.value.report is not None
        assert exc_info.value.report.stop_reason == "diverged"

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        scenes = small_dataset(3)
        straight = small_config(max_epochs=4)
        best_a, rep_a = train(scenes, scenes, straight)

        state_path = tmp_path / "state.bin"
        part1 = small_config(max_epochs=2)
        train(scenes, scenes, part1, state_out=state_path)
        part2 = small_config(max_epochs=4)
        best_b, rep_b = train(scenes, scenes, part2, resume_from=str(state_path))

        assert [r.total for r in rep_b.records] == [r.total for r in rep_a.records[2:]]
        for name in best_a.names():
            np.testing.assert_array_equal(best_a[name].data, best_b[name].data)

    def test_best_checkpoint_is_returned(self):
        scenes = small_dataset(3)
        cfg = small_config(max_epochs=6)
        best, report = train(scenes, scenes, cfg)
        assert report.best_epoch >= 1
        assert set(best.names()) == set(init_params(cfg.model, 0).names())

    def test_report_csv_schema(self, tmp_path):
        scenes = small_dataset(2)
        cfg = small_config(max_epochs=3, val_minade_every=2)
        _, report = train(scenes, scenes, cfg)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,goal_loss,traj_loss,total,val_ade,val_minade,lr"
        assert len(lines) == 4
        row1 = lines[1].split(",")
        assert row1[0] == "1"
        assert row1[5] == ""  # minADE skipped on epoch 1 (evaluated every 2)

    def test_target_stop(self):
        scenes = small_dataset(2)
        cfg = small_config(
            max_epochs=50, target_loss_frac=0.99, target_minade=1e9, val_minade_every=1
        )
        _, report = train(scenes, scenes, cfg)
        assert report.stop_reason == "target_reached"
        assert len(report.records) < 50


def assert_store_views(params):
    """Every parameter's value and gradient live in the store's flat buffers."""
    for name, t in params.items():
        assert np.shares_memory(t.data, params.values), name
        assert np.shares_memory(t.grad, params.grads), name


class TestFlatBuffer:
    def test_flat_adam_matches_per_array_adam_bitwise(self):
        model_cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        cfg = TrainConfig()
        flat, ref = init_params(model_cfg, seed=2), init_params(model_cfg, seed=2)
        adam = Adam(flat, cfg)
        m = {n: np.zeros_like(t.data) for n, t in ref.items()}
        v = {n: np.zeros_like(t.data) for n, t in ref.items()}
        rng = np.random.default_rng(4)
        for t, lr in enumerate([1e-3, 1e-3, 5e-4, 2.0, 1e-3, 3e-5], start=1):
            flat.zero_grad()
            ref.zero_grad()
            for name in flat.names():
                g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=flat[name].shape)
                g[rng.random(g.shape) < 0.2] = 0.0
                flat[name].grad[...] = g
                ref[name].grad[...] = g
            adam.step(lr)
            reference_adam_step(ref, m, v, t, lr, cfg)
            for name in flat.names():
                assert flat[name].data.tobytes() == ref[name].data.tobytes(), (t, name)
            assert adam.m.tobytes() == np.concatenate([a.ravel() for a in m.values()]).tobytes()
            assert adam.v.tobytes() == np.concatenate([a.ravel() for a in v.values()]).tobytes()

    def test_parameters_stay_views_of_the_store(self, tiny_scene):
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = init_params(cfg, seed=0)
        assert_store_views(params)
        adam = Adam(params, TrainConfig())
        total, _, _ = window_loss_graph(params, cfg, TrainConfig(), tiny_scene)
        backward(total)
        assert_store_views(params)
        assert params.grads.any()
        adam.step(1e-3)
        assert_store_views(params)
        params.zero_grad()
        assert_store_views(params)
        assert not params.grads.any()
        copies = params.copy_values()
        assert_store_views(params)
        for name, arr in copies.items():
            assert not np.shares_memory(arr, params.values)
            assert arr.tobytes() == params[name].data.tobytes()

    def test_weight_setting_helpers_keep_store_views(self, tiny_scene):
        # The tests' helpers that set weights write in place: rebinding a
        # parameter's ``data`` would detach it from the flat buffer, and the
        # forward would keep reading a stale array after ``Adam.step``.
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        params = zero_decoder(init_params(cfg, seed=0))
        zero_gpm_weights(params, out_bias=0.3)
        set_random_biases(params, "tpm.social0", np.random.default_rng(0))
        assert_store_views(params)
        total, _, _ = window_loss_graph(params, cfg, TrainConfig(), tiny_scene)
        backward(total)
        Adam(params, TrainConfig()).step(1e-3)
        assert_store_views(params)

    def test_resumed_parameters_stay_views_of_the_store(self, tmp_path, monkeypatch):
        steps = []

        class CheckedAdam(Adam):
            def step(self, lr):
                super().step(lr)
                assert_store_views(self.params)
                steps.append(self.t)

        monkeypatch.setattr(training, "Adam", CheckedAdam)
        scenes = small_dataset(2)
        state_path = tmp_path / "state.bin"
        train(scenes, scenes, small_config(max_epochs=1), state_out=state_path)
        train(scenes, scenes, small_config(max_epochs=2), resume_from=str(state_path))
        assert steps == [1, 2, 3, 4]  # two windows at batch size 1


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
    params = init_params(cfg, seed=3)
    params.save(tmp_path / "ck.bin")
    loaded = ParamStore.load(tmp_path / "ck.bin")
    assert loaded.names() == params.names()
    for name in params.names():
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
