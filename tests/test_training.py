import gc
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from reference_ops import (
    add,
    bce_with_logits_mean,
    constant,
    mul,
    reduce_mean,
    reduce_sum,
    reference_adam_step,
    scale,
    sub,
)
from test_attention import set_random_biases
from test_gpm import zero_gpm_weights

from vista import training
from vista.config import Config, ModelConfig, TrainConfig
from vista.data import AgentTrack, ScenarioSpec, Scene, SceneRaster, synth_generate
from vista.errors import CheckpointError, DataError, DivergenceError
from vista.experiments import overfit_config, overfit_dataset
from vista.gpm import gpm_forward_batch
from vista.model import Model, init_params
from vista.params import ParamStore
from vista.tensor import backward
from vista.tpm import rollout
from vista.training import (
    Adam,
    Patience,
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

    @pytest.mark.parametrize("which", ["train", "validation"])
    @pytest.mark.parametrize("n_frames", [5, 9])
    def test_train_rejects_a_window_of_another_length(self, which, n_frames):
        # t_obs + t_fut is 7: a 5-frame window trained on a broadcast loss
        # and then diverged, a 9-frame one ended in a numpy broadcast error.
        scenes = small_dataset(3)
        bad = replace(small_dataset(1, t_fut=n_frames - 4)[0], source="odd.txt")
        fit, val = ([bad, scenes[1]], scenes[2:]) if which == "train" else (scenes[1:], [bad])
        with pytest.raises(DataError, match=f"odd.txt: {n_frames} frames, not t_obs \\+ t_fut = 7"):
            train(fit, val, small_config(max_epochs=1))

    @pytest.mark.parametrize("which", ["train", "validation"])
    @pytest.mark.parametrize("shape", [(16, 16, 2), (20, 18, 1)], ids=["two_classes", "side_18"])
    def test_train_rejects_a_raster_the_goal_module_cannot_read(self, which, shape):
        scenes = small_dataset(3)
        bad = replace(scenes[0], raster=SceneRaster(np.full(shape, 1 / shape[2])), source="odd.txt")
        fit, val = ([bad, scenes[1]], scenes[2:]) if which == "train" else (scenes[1:], [bad])
        with pytest.raises(DataError, match="odd.txt: the model reads 1-class rasters"):
            train(fit, val, small_config(max_epochs=1))

    @pytest.mark.parametrize("edit", ["two_classes", "side_18", "three_frames"])
    def test_predict_rejects_what_the_goal_module_cannot_read(self, edit):
        # Ended in a numpy ValueError, a ConfigError and a ConfigError.
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16, n_raw_samples=100)
        model = Model(cfg, init_params(cfg, seed=0))
        scene = {
            "two_classes": replace(still_scene(), raster=SceneRaster(np.full((16, 16, 2), 0.5))),
            "side_18": replace(still_scene(), raster=SceneRaster(np.ones((18, 18, 1)))),
            "three_frames": still_scene(t_obs=3, t_fut=0),
        }[edit]
        with pytest.raises(DataError, match="raster|observed batch"):
            model.predict(scene, k=2, seed=0)

    @pytest.mark.parametrize("source", ["odd.txt", None])
    def test_predict_names_the_window_whose_raster_it_refuses(self, source):
        # Named only "raster" before: a caller with many windows could not
        # tell which one failed. A window not read from a file has its key.
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16, n_raw_samples=100)
        model = Model(cfg, init_params(cfg, seed=0))
        scene = replace(still_scene(), raster=SceneRaster(np.ones((18, 18, 1))), source=source)
        name = re.escape(source or scene.key())
        with pytest.raises(DataError, match=f"^{name}: the model reads 1-class rasters"):
            model.predict(scene, k=2, seed=0)


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


# The primitive chain that the one-node joint loss replaced, kept verbatim
# as its reference.


def reference_window_loss(params, model_cfg, train_cfg, scene):
    positions = scene.positions()
    gt_goals = positions[:, -1, :]
    gt_future = positions[:, model_cfg.t_obs :, :]

    goal_sum = None
    goal_part = 0.0
    if model_cfg.use_goal and train_cfg.lambda_goal != 0.0:
        channels, targets = window_constants(scene, model_cfg)
        logits = gpm_forward_batch(channels, params)
        per_agent = bce_with_logits_mean(logits, targets, axis=(1, 2))
        goal_sum = reduce_sum(per_agent)
        goal_part = float(per_agent.data.mean())

    result = rollout(scene, gt_goals if model_cfg.use_goal else None, params, model_cfg)
    diff = sub(result.positions, constant(gt_future[result.canonical_order]))
    sq = reduce_sum(mul(diff, diff), axis=2)  # (N, T_fut)
    per_agent_traj = reduce_mean(sq, axis=1)
    traj_sum = reduce_sum(per_agent_traj)
    traj_part = float(per_agent_traj.data.mean())

    total = scale(traj_sum, train_cfg.lambda_traj)
    if goal_sum is not None:
        total = add(total, scale(goal_sum, train_cfg.lambda_goal))
    return total, goal_part, traj_part


class TestLossNode:
    @pytest.mark.parametrize("window", [0, 7, 13, 19])
    @pytest.mark.parametrize(
        "model_overrides, lambda_goal",
        [({}, None), ({}, 0.0), ({"use_goal": False}, None), ({"use_social": False}, None)],
        ids=["full", "lambda_goal_0", "no_goal", "no_social"],
    )
    def test_matches_primitive_chain_bitwise(self, window, model_overrides, lambda_goal):
        # ``train`` seeds the backward with 1/batch size where it used to
        # scale the chain's total: values, parts and gradients bit for bit.
        cfg = overfit_config(0)
        for key, value in model_overrides.items():
            setattr(cfg.model, key, value)
        if lambda_goal is not None:
            cfg.train.lambda_goal = lambda_goal
        params = init_params(cfg.model, seed=3)
        scene = overfit_dataset(0)[window]

        params.zero_grad()
        total, goal_part, traj_part = window_loss_graph(params, cfg.model, cfg.train, scene)
        backward(total, seed=1.0 / 3)
        grads = params.grads.copy()
        params.zero_grad()
        ref, ref_goal, ref_traj = reference_window_loss(params, cfg.model, cfg.train, scene)
        backward(scale(ref, 1.0 / 3))

        assert total.op == "loss"
        assert total.data.tobytes() == ref.data.tobytes()
        assert (goal_part, traj_part) == (ref_goal, ref_traj)
        assert (goal_part > 0) == (cfg.model.use_goal and cfg.train.lambda_goal != 0.0)
        assert grads.tobytes() == params.grads.tobytes()


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
            before = params.split(params.values.copy())
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
        # path (tpm._goal_term), which no longer reads the query/key
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
        # Three hand-written nodes: the goal module's encoder-decoder, the
        # rollout with its goal term, and the joint loss over both. The goal
        # term and the loss as primitive chains recorded 20 nodes, a node
        # per GPM layer, pool, upsample and concat 46, one node per rollout
        # step and layer 95, re-embedding the sequence every step 174, and
        # primitive chains throughout 333.
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
        assert non_leaf <= 3

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


# The two validation loops that the one validation score replaced, kept
# verbatim as its references.


def reference_validation_ade(model, scenes):
    """k=1 rollout with the ground-truth goal; agent-weighted mean ADE."""
    total, count = 0.0, 0
    for scene in scenes:
        gt = scene.positions()[:, model.config.t_obs :, :]
        result = model.rollout_with_goals(scene, scene.positions()[:, -1])
        err = np.sqrt(((result.trajectories - gt) ** 2).sum(-1)).mean(axis=1)
        total += err.sum()
        count += len(err)
    return total / count


def reference_validation_minade(model, scenes, k, seed):
    """Best-of-k ADE over TTST-sampled goals with a fixed seed."""
    total, count = 0.0, 0
    for scene in scenes:
        gt = scene.positions()[:, model.config.t_obs :, :]
        pred = model.predict(scene, k=k, seed=seed)
        err = np.sqrt(((pred.trajectories - gt[:, None]) ** 2).sum(-1)).mean(axis=2)
        total += err.min(axis=1).sum()
        count += err.shape[0]
    return total / count


class TestValidationScore:
    @pytest.mark.parametrize("use_goal", [True, False], ids=["goal", "no_goal"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_the_two_loops_bitwise(self, use_goal, seed):
        cfg = overfit_config(0)
        cfg.model.use_goal = use_goal
        model = Model(cfg.model, init_params(cfg.model, seed=seed))
        scenes = overfit_dataset(seed)[:6]
        ade = training._validation_score(model, scenes)
        minade = training._validation_score(model, scenes, 4, seed)
        assert type(ade) is float and type(minade) is float
        assert ade.hex() == float(reference_validation_ade(model, scenes)).hex()
        assert minade.hex() == float(reference_validation_minade(model, scenes, 4, seed)).hex()

    def test_a_non_finite_rollout_is_a_data_error(self, monkeypatch):
        # ``train`` turns it into a DivergenceError with the partial report.
        cfg = ModelConfig(t_obs=4, t_fut=3, grid=16)
        model = Model(cfg, init_params(cfg, seed=0))
        real = model.rollout_with_goals

        def blown_up(*args):
            result = real(*args)
            result.trajectories[0, 0, 0] = np.inf
            return result

        monkeypatch.setattr(model, "rollout_with_goals", blown_up)
        with pytest.raises(DataError, match="finite"):
            training._validation_score(model, small_dataset(1))


class TestSchedules:
    def test_plateau_counter_fires_at_patience_plus_one_when_restarted(self):
        # The loop halves the LR when the plateau counter fires and restarts
        # its run; the best value persists across halvings.
        plateau = Patience(patience=30)
        fired_at = []
        for epoch in range(1, 100):
            if plateau.update(5.0, epoch):
                fired_at.append(epoch)
                plateau.bad = 0
        assert fired_at[:3] == [31, 61, 91]
        assert (plateau.best, plateau.best_epoch) == (5.0, 1)

    def test_early_stop_counter_fires_patience_after_best(self):
        stopper = Patience(patience=75)
        stopped_at = None
        for epoch in range(1, 200):
            if stopper.update(3.0, epoch):
                stopped_at = epoch
                break
        assert stopped_at == 76
        assert stopper.best_epoch == 1

    def test_improvements_reset_the_counters(self):
        stopper = Patience(patience=3)
        values = [5.0, 4.0, 4.5, 4.5, 3.9, 4.2, 4.2, 4.2]
        fired = [stopper.update(v, i + 1) for i, v in enumerate(values)]
        assert fired == [False] * 7 + [True]
        assert (stopper.best, stopper.best_epoch, stopper.bad) == (3.9, 5, 3)

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

    @pytest.mark.parametrize("split", [2, 4])
    def test_resume_reproduces_uninterrupted_run(self, tmp_path, split):
        # Split at epoch 4, the run is resumed between its first LR halving
        # (epoch 3) and its early stop (epoch 5).
        scenes = small_dataset(3)
        schedules = dict(plateau_patience=1, early_stop_patience=3)
        best_a, rep_a = train(scenes, scenes, small_config(max_epochs=12, **schedules))
        lr = small_config().train.lr
        assert [r.lr for r in rep_a.records] == [lr, lr, lr / 2, lr / 2, lr / 4]
        assert (rep_a.stop_reason, len(rep_a.records), rep_a.best_epoch) == ("early_stop", 5, 2)

        state_path = tmp_path / "state.bin"
        train(scenes, scenes, small_config(max_epochs=split, **schedules), state_out=state_path)
        best_b, rep_b = train(
            scenes, scenes, small_config(max_epochs=12, **schedules), resume_from=str(state_path)
        )

        assert rep_b.records == rep_a.records[split:]
        assert (rep_b.stop_reason, rep_b.best_epoch) == (rep_a.stop_reason, rep_a.best_epoch)
        assert rep_b.best_val_minade == rep_a.best_val_minade
        assert best_b.values.tobytes() == best_a.values.tobytes()

    @pytest.mark.parametrize("schedule, stop, epochs", [
        (dict(plateau_patience=1, early_stop_patience=4, lr=3e-3), "early_stop", 10),
        (dict(target_loss_frac=0.9, target_minade=5.0), "target_reached", 2),
        (dict(max_epochs=4), "max_epochs", 4),
    ], ids=["early_stop", "target_reached", "max_epochs"])
    def test_saved_and_resumed_run_equals_straight_run_at_every_split(
        self, tmp_path, schedule, stop, epochs
    ):
        # A state saved where its run stopped resumes without another epoch;
        # one saved at a smaller max_epochs trains on to the larger one.
        scenes = small_dataset(3)
        schedule = {"max_epochs": 12, **schedule}
        best, rep = train(scenes, scenes, small_config(**schedule))
        assert (rep.stop_reason, len(rep.records)) == (stop, epochs)
        state_path = tmp_path / "state.bin"
        for split in range(1, epochs + 1):
            _, rep_a = train(scenes, scenes, small_config(**{**schedule, "max_epochs": split}),
                             state_out=state_path)
            best_b, rep_b = train(scenes, scenes, small_config(**schedule),
                                  resume_from=str(state_path))
            records = [repr(astuple(r)) for r in rep_a.records + rep_b.records]
            assert records == [repr(astuple(r)) for r in rep.records], split
            assert best_b.values.tobytes() == best.values.tobytes(), split
            assert (rep_b.stop_reason, rep_b.best_epoch) == (rep.stop_reason, rep.best_epoch)
            assert rep_b.best_val_minade.hex() == rep.best_val_minade.hex()

    @pytest.mark.parametrize("stop, match", [
        (None, "no entry '_state.stop'"), (3.0, "no stop reason 3"), (-1.0, "no stop reason -1"),
    ], ids=["missing", "past_the_last", "negative"])
    def test_state_without_a_stop_reason_is_a_checkpoint_error(self, tmp_path, stop, match):
        # A state file written before the slot lacks it.
        scenes = small_dataset(2)
        state_path = tmp_path / "state.bin"
        train(scenes, scenes, small_config(max_epochs=1), state_out=state_path)
        arrays = {n: t.data for n, t in ParamStore.load(state_path).items() if n != "_state.stop"}
        if stop is not None:
            arrays["_state.stop"] = [stop]
        ParamStore(arrays).save(state_path)
        with pytest.raises(CheckpointError, match=match):
            train(scenes, scenes, small_config(max_epochs=2), resume_from=str(state_path))

    @pytest.mark.parametrize("slot, value", [
        *((slot, math.nan) for slot in ("epoch", "stop", "adam_t", "plateau_best_epoch",
                                        "plateau_bad", "stop_best_epoch", "stop_bad")),
        ("epoch", math.inf), ("adam_t", 2.5),
    ])
    def test_non_integer_in_an_integer_slot_is_a_checkpoint_error(self, tmp_path, slot, value):
        # int(nan) used to end the resume in a ValueError traceback.
        scenes = small_dataset(2)
        state_path = tmp_path / "state.bin"
        train(scenes, scenes, small_config(max_epochs=1), state_out=state_path)
        arrays = {n: t.data for n, t in ParamStore.load(state_path).items()}
        arrays[f"_state.{slot}"] = [value]
        ParamStore(arrays).save(state_path)
        with pytest.raises(CheckpointError, match=f"'_state.{slot}' holds {value}, not an integer"):
            train(scenes, scenes, small_config(max_epochs=2), resume_from=str(state_path))

    def test_state_file_holds_flat_vectors(self, tmp_path):
        scenes = small_dataset(2)
        cfg = small_config(max_epochs=2)
        state_path = tmp_path / "state.bin"
        best, _ = train(scenes, scenes, cfg, state_out=state_path)
        blob = ParamStore.load(state_path)
        names = [n for n in blob.names() if n.startswith("_")]
        assert names[:3] == ["_opt.m", "_opt.v", "_best"]
        assert all(n.startswith("_state.") for n in names[3:])
        assert blob["_best"].data.tobytes() == best.values.tobytes()
        assert training.strip_train_state(blob).names() == init_params(cfg.model, 0).names()

    def test_per_parameter_state_layout_is_a_checkpoint_error(self, tmp_path):
        # The layout before flat vectors had one moment entry per parameter.
        scenes = small_dataset(2)
        cfg = small_config(max_epochs=2)
        params = init_params(cfg.model, seed=0)
        arrays = {name: t.data for name, t in params.items()}
        for name, t in params.items():
            arrays[f"_opt.m.{name}"] = np.zeros_like(t.data)
            arrays[f"_opt.v.{name}"] = np.zeros_like(t.data)
        for name in ("epoch", "lr", "adam_t", "plateau_best", "plateau_bad", "stop_best",
                     "stop_best_epoch", "stop_bad", "first_total"):
            arrays[f"_state.{name}"] = [1.0]
        state_path = tmp_path / "old_state.bin"
        ParamStore(arrays).save(state_path)
        with pytest.raises(CheckpointError, match="no entry '_opt.m'"):
            train(scenes, scenes, cfg, resume_from=str(state_path))

    @pytest.mark.parametrize(
        "saved, resumed",
        [({"use_social": False}, {}), ({}, {"d_model": 16}), ({}, {"use_social": False})],
        ids=["social_off_to_on", "d_model_32_to_16", "social_on_to_off"],
    )
    def test_state_of_another_model_config_is_a_checkpoint_error(
        self, tmp_path, monkeypatch, saved, resumed
    ):
        scenes = small_dataset(2)
        cfg = small_config(max_epochs=1)
        cfg.model = replace(cfg.model, **saved)
        state_path = tmp_path / "state.bin"
        train(scenes, scenes, cfg, state_out=state_path)
        cfg = small_config(max_epochs=2)
        cfg.model = replace(cfg.model, **resumed)

        def no_epoch(*args):
            raise AssertionError("an epoch ran")

        monkeypatch.setattr(training, "window_loss_graph", no_epoch)
        match = re.escape(f"{state_path}: parameters do not match the model config")
        with pytest.raises(CheckpointError, match=match):
            train(scenes, scenes, cfg, resume_from=str(state_path))

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
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3"]
        assert [row[5] == "" for row in rows] == [True, False, False]  # minADE every 2, and last
        for row in rows:
            assert len(row) == 7
            for cell in row:
                assert cell == row[5] == "" or np.isfinite(float(cell)), row

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
        copies = params.split(params.values.copy())
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
