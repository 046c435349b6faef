"""Desk-scale experiment recipes: the overfit smoke test and the
social/goal ablation on the head-on avoidance suite.

Both are runnable from scripts/ and exercised by the acceptance suite, so
their configurations live here as the single source of truth.
"""

from __future__ import annotations

import time

import numpy as np

from .config import Config, ModelConfig, TrainConfig
from .data import ScenarioSpec, Scene, synth_generate
from .metrics import calibrate_epsilon, eval_from_scene, evaluate_windows
from .model import Model
from .training import train

ABLATION_VARIANTS = ("full", "no-social", "no-goal")


# -- overfit smoke ----------------------------------------------------------


def overfit_dataset(seed: int) -> list[Scene]:
    """20 mixed-scenario windows with 2..5 agents each."""
    scenes = []
    layout = [
        ("crossing", 2, 6),
        ("head-on-avoid", 2, 6),
        ("group", 3, 5),
        ("diverge", 5, 3),
    ]
    for scenario, n_agents, windows in layout:
        spec = ScenarioSpec(
            scenario=scenario,
            n_agents=n_agents,
            speed=0.5,
            margin=1.2,
            grid=16,
            n_frames=20,
            randomize=True,
            n_windows=windows,
            seed=seed * 101 + 7,
        )
        scenes.extend(synth_generate(spec))
    return scenes


def overfit_config(seed: int) -> Config:
    cfg = Config()
    cfg.model = ModelConfig(t_obs=8, t_fut=12, grid=16, goal_sigma=0.8)
    cfg.train = TrainConfig(
        max_epochs=300,
        lr=1.5e-3,
        val_k=20,
        val_minade_every=25,
        seed=seed,
        target_loss_frac=0.1,
        target_minade=0.1,
    )
    return cfg


def run_overfit(seed: int) -> dict:
    """Train on 20 windows and report the loss drop and train-set minADE_20."""
    scenes = overfit_dataset(seed)
    cfg = overfit_config(seed)
    t0 = time.monotonic()
    best, report = train(scenes, scenes, cfg)
    seconds = time.monotonic() - t0
    first = report.records[0].total
    lowest = min(r.total for r in report.records)
    minades = [r.val_minade for r in report.records if not np.isnan(r.val_minade)]
    return {
        "seed": seed,
        "epochs": len(report.records),
        "seconds": seconds,
        "stop": report.stop_reason,
        "loss_drop": 1.0 - lowest / first,
        "min_ade_20": min(minades),
        "first_total": first,
        "last_total": report.records[-1].total,
    }


# -- ablation on head-on avoidance -------------------------------------------


def head_on_dataset(seed: int, n_train: int = 50, n_test: int = 20):
    spec = ScenarioSpec(
        scenario="head-on-avoid",
        n_agents=2,
        speed=0.5,
        margin=1.2,
        grid=24,
        n_frames=20,
        randomize=True,
        n_windows=n_train + n_test,
        seed=seed * 977 + 13,
    )
    scenes = synth_generate(spec)
    return scenes[:n_train], scenes[n_train:]


def ablation_config(variant: str, seed: int) -> Config:
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    cfg = Config()
    cfg.model = ModelConfig(
        t_obs=8,
        t_fut=12,
        grid=24,
        goal_sigma=1.0,
        use_social=variant != "no-social",
        use_goal=variant != "no-goal",
    )
    cfg.train = TrainConfig(
        max_epochs=40,
        lr=1.5e-3,
        val_k=20,
        val_minade_every=10,
        seed=seed,
        lambda_goal=0.0 if variant == "no-goal" else 1e3,
    )
    return cfg


def run_ablation(seed: int, n_train: int = 50, n_test: int = 20, k: int = 20) -> dict:
    """Train the three variants on one seed and score the held-out windows
    under TTST sampling with ``evaluate_windows`` (pooled ``min_ade`` and
    ``cr``, the per-sample-mean collision rate, among its scores)."""
    train_scenes, test_scenes = head_on_dataset(seed, n_train, n_test)
    epsilon = calibrate_epsilon(train_scenes + test_scenes)
    results = {}
    for variant in ABLATION_VARIANTS:
        cfg = ablation_config(variant, seed)
        best, report = train(train_scenes, train_scenes, cfg)
        model = Model(config=cfg.model, params=best)
        evals = [
            eval_from_scene(s, model.predict(s, k=k, seed=seed).trajectories, cfg.model.t_obs)
            for s in test_scenes
        ]
        results[variant] = evaluate_windows(evals, epsilon) | {"epochs": len(report.records)}
    results["epsilon"] = epsilon
    return results
