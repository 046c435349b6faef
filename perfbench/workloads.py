"""The three benchmark workloads.

Each one builds its inputs from the seed alone, runs one operation at a time
in a closed loop (one client, no arrival schedule: vista is an offline tool),
and checks every output outside the timed region. All calls into vista go
through module attributes (``training.train``, ``cli.main``, ...) so that the
tracer's wrappers see them.

- ``train-mixed``: ``training.train`` for a fixed number of epochs on
  ``experiments.overfit_dataset(seed)``; bound by graph build and backward.
- ``predict-pairs``: ``Model.predict(k=20)`` plus ``metrics.evaluate_windows``
  on held-out 2-agent head-on windows; small shapes, rollouts and TTST.
- ``crowd-cli``: ``cli.main`` predict (with ``--trace``) then evaluate over
  files of 10-agent windows on a 32x32 raster; TTST-bound, plus file IO.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import shutil
import zlib
from pathlib import Path

import numpy as np

from vista import cli, data, experiments, metrics, tensor, tpm, training
from vista import model as model_mod
from vista import params as params_mod
from vista.config import Config

from fixture_recipe import FIXTURE, expected_digest, sha256_of

K = 20


class FixtureError(RuntimeError):
    """The checkpoint fixture is missing or its digest does not match."""


def derived_seed(*parts) -> int:
    """A 31-bit seed for one input family, from the run seed and a label.

    Derived here rather than with ``model.stable_seed`` so that a change to
    the program cannot change the benchmark's inputs."""
    return zlib.crc32("\x1f".join(str(p) for p in parts).encode()) & 0x7FFFFFFF


def load_fixture():
    """ParamStore of the trained fixture, refused if its digest has changed."""
    expected, digest = expected_digest(), sha256_of(FIXTURE)
    if digest != expected:
        raise FixtureError(f"{FIXTURE.name}: sha256 {digest} != manifest {expected}")
    return params_mod.ParamStore.load(FIXTURE)


def prediction_problems(trajectories, n_agents: int, t_fut: int) -> list[str]:
    shape = (n_agents, K, t_fut, 2)
    if trajectories.shape != shape:
        return [f"prediction shape {trajectories.shape} != {shape}"]
    if not np.isfinite(trajectories).all():
        return ["non-finite prediction"]
    return []


def permuted_scene(scene):
    """The same window with its agents listed in reverse order."""
    return dataclasses.replace(scene, tracks=list(reversed(scene.tracks)))


def permutation_problems(model, scene, seed, reference) -> list[str]:
    """Predicting the agent-reversed window must give the reversed output."""
    pred = model.predict(permuted_scene(scene), k=K, seed=seed)
    if not np.array_equal(pred.trajectories, reference[::-1]):
        return [f"{scene.key()}: permuting agents does not permute predictions"]
    return []


def fixture_min_ade(model, scenes, seed, t_obs) -> float:
    evals = []
    for scene in scenes:
        pred = model.predict(scene, k=K, seed=seed)
        gt = scene.positions()[:, t_obs:, :]
        evals.append(metrics.EvalInput(predictions=pred.trajectories, ground_truth=gt))
    return metrics.evaluate_windows(evals, metrics.calibrate_epsilon(scenes))["min_ade"]


def held_out_loss(params, config: Config, scenes) -> float:
    """Mean joint loss (the training objective) of ``params`` on ``scenes``."""
    with tensor.no_grad():
        totals = [
            training.window_loss_graph(params, config.model, config.train, s)[0].item()
            for s in scenes
        ]
    return float(np.mean(totals))


class Workload:
    """One workload: ``setup`` builds the inputs, ``op`` is the timed unit of
    work, ``check`` inspects one op's output, ``finish`` computes the quality
    guards and runs the checks that need more than one op."""

    name = ""
    # Fewest windows a measured run covers, so the p90 has ten samples beyond it.
    min_windows = 0
    # One untimed op before measuring, where an op is short enough for lazy
    # caches and BLAS buffers to weigh on the first timed sample.
    warm_up = False

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def prepare(self, i: int):
        return None

    def op(self, i: int, prepared) -> tuple[int, object]:
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        raise NotImplementedError

    def finish(self) -> tuple[dict, int, list[str]]:
        raise NotImplementedError

    def finish_ops(self) -> int:
        """About how many ops' time ``finish`` would take now."""
        raise NotImplementedError


class TrainMixed(Workload):
    name = "train-mixed"
    epochs = 8
    # One held-out 2-agent window keeps the k=20 validation pass (and the
    # per-epoch validation ADE) under a tenth of the wall time.
    held_out = (0,)

    def setup(self, index):
        self.train_scenes = experiments.overfit_dataset(self.seed)
        pool = experiments.overfit_dataset(derived_seed("train-mixed-val", self.seed))
        self.val_scenes = [pool[i] for i in self.held_out]
        self.config = experiments.overfit_config(self.seed)
        epochs = 1 if self.tiny else self.epochs
        self.config.train.max_epochs = epochs
        self.config.train.val_minade_every = epochs
        self.first = None
        self.last_report = None

    def prepare(self, i):
        # Fresh scene objects: each op is a cold training run, so the
        # per-window GPM input cache fills the way it does in one.
        return copy.deepcopy((self.train_scenes, self.val_scenes))

    def op(self, i, prepared):
        train_scenes, val_scenes = prepared
        best, report = training.train(train_scenes, val_scenes, self.config)
        return len(train_scenes) * len(report.records), (best, report)

    def check(self, i, output):
        best, report = output
        epochs = self.config.train.max_epochs
        if len(report.records) != epochs or report.stop_reason != "max_epochs":
            return [f"ran {len(report.records)} epochs ({report.stop_reason}), want {epochs}"]
        rows = np.array(
            [[r.goal_loss, r.traj_loss, r.total, r.val_ade, r.val_minade, r.lr] for r in report.records]
        )
        values = np.concatenate([t.data.ravel() for t in best.tensors()])
        if not (np.isfinite(rows[:, :4]).all() and np.isfinite(values).all()):
            return ["non-finite loss, validation ADE or parameter"]
        digest = hashlib.sha256(rows.tobytes() + values.tobytes()).hexdigest()
        self.last_report = report
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            return ["repeated training run is not bit-identical"]
        return []

    def finish(self):
        if self.last_report is None:
            return {}, 0, []
        # A model after eight epochs varies too much between seeds for its
        # minADE to be a steady guard, so min_ade_20 here scores the trained
        # fixture on this workload's training windows: it guards the
        # prediction path on mixed 16x16 inputs.
        model = model_mod.Model(self.config.model, load_fixture())
        scenes = self.train_scenes[:4] if self.tiny else self.train_scenes
        quality = {
            "final_loss": self.last_report.records[-1].total,
            "min_ade_20": fixture_min_ade(model, scenes, self.seed, self.config.model.t_obs),
        }
        return quality, 1, []

    def finish_ops(self):
        # Scoring the fixture on the 20 training windows takes about as long
        # as one to two training runs.
        return 2


class PredictPairs(Workload):
    name = "predict-pairs"
    min_windows = 100
    warm_up = True
    pool_size = 60

    def setup(self, index):
        self.params = load_fixture()
        self.config = experiments.ablation_config("full", 0)
        size = 4 if self.tiny else self.pool_size
        spec = data.ScenarioSpec(
            scenario="head-on-avoid", n_agents=2, speed=0.5, margin=1.2, grid=24,
            n_frames=20, randomize=True, n_windows=size,
            seed=derived_seed("predict-pairs", self.seed),
        )
        self.scenes = data.synth_generate(spec)
        self.epsilon = metrics.calibrate_epsilon(self.scenes)
        self.model = model_mod.Model(self.config.model, self.params)
        self.first = {}

    def op(self, i, prepared):
        j = i % len(self.scenes)
        scene = self.scenes[j]
        pred = self.model.predict(scene, k=K, seed=self.seed)
        ev = metrics.EvalInput(
            predictions=pred.trajectories,
            ground_truth=scene.positions()[:, self.config.model.t_obs :, :],
        )
        report = metrics.evaluate_windows([ev], self.epsilon)
        return 1, (j, pred.trajectories, report)

    def check(self, i, output):
        j, trajectories, report = output
        scene = self.scenes[j]
        problems = prediction_problems(trajectories, scene.n_agents, self.config.model.t_fut)
        if not all(math.isfinite(report[key]) for key in ("ade", "fde", "min_ade", "min_fde")):
            problems.append("non-finite displacement metric")
        if problems:
            return [f"{scene.key()}: {p}" for p in problems]
        # json.dumps keeps NaN equal to itself, which == on floats does not.
        digest = (trajectories.tobytes(), json.dumps(report, sort_keys=True))
        if j not in self.first:
            self.first[j] = (trajectories, report, digest)
        elif digest != self.first[j][2]:
            return [f"{scene.key()}: repeated prediction is not bit-identical"]
        return []

    def finish(self):
        checks, problems = 0, []
        for j in range(len(self.scenes)):
            if j not in self.first:
                checks += 1
                problems += self.check(j, self.op(j, self.prepare(j))[1])
        if problems:
            return {}, checks, problems
        for j in (0, 1):
            checks += 1
            problems += permutation_problems(
                self.model, self.scenes[j], self.seed, self.first[j][0]
            )
        quality = {
            "final_loss": held_out_loss(self.params, self.config, self.scenes),
            "min_ade_20": float(np.mean([self.first[j][1]["min_ade"] for j in self.first])),
        }
        return quality, checks, problems

    def finish_ops(self):
        # The windows the loop has not reached, two permuted predictions and
        # the fixture's loss over the pool.
        return len(self.scenes) - len(self.first) + 5


@dataclasses.dataclass
class FileSet:
    """One directory of window files and the CLI outputs made from it."""

    base: Path
    scenes: list

    @property
    def data_dir(self):
        return self.base / "data"

    @property
    def raster_dir(self):
        return self.base / "data" / "rasters"

    @property
    def pred_dir(self):
        return self.base / "pred"

    @property
    def metrics_dir(self):
        return self.base / "metrics"


class CrowdCli(Workload):
    name = "crowd-cli"
    # Ops cycle over six file sets of three windows: one op stays near three
    # seconds, so a run's median and p90 have about ten ops behind them,
    # while a run covers 180 agents, so the seed's draw of inputs moves the
    # timings less.
    sets = 6
    windows = 3
    # Each window is five independent head-on pairs, each turned to its own
    # grid orientation: ten agents whose futures the fixture was trained on.
    pairs_per_window = 5
    grid = 32

    def setup(self, index):
        self.params = load_fixture()
        self.config = Config()
        n_sets = 2 if self.tiny else self.sets
        n_windows = 1 if self.tiny else self.windows
        n_pairs = 2 if self.tiny else self.pairs_per_window
        spec = data.ScenarioSpec(
            scenario="head-on-avoid", n_agents=2, speed=0.5, margin=1.2, grid=self.grid,
            n_frames=20, randomize=True, n_windows=n_sets * n_windows * n_pairs,
            seed=derived_seed("crowd-cli", self.seed),
        )
        pairs = iter(data.synth_generate(spec))
        raster = data.uniform_raster(self.grid)
        self.file_sets = []
        for k in range(n_sets):
            file_set = FileSet(self.workdir / f"setup{index}" / f"set{k}", [])
            os.makedirs(file_set.raster_dir)
            for w in range(n_windows):
                tracks = []
                for j in range(n_pairs):
                    pair = data.augment_dihedral(next(pairs), j, self.grid)
                    tracks += [
                        data.AgentTrack(2 * j + t.agent_id, t.positions, t.frame_ids)
                        for t in pair.tracks
                    ]
                scene = data.Scene(f"crowd{k}", tracks, raster=raster, unit_scale=1.0, window_index=w)
                data.save_trajectories(file_set.data_dir / f"crowd{k}__w{w:03d}.txt", scene)
                file_set.scenes.append(scene)
            data.save_raster(file_set.raster_dir / f"crowd{k}.txt", raster)
            self.file_sets.append(file_set)
        self.first = {}
        self.reports = {}

    def prepare(self, i):
        # Every op writes all the files check() reads: none left by an
        # earlier op on the same set can stand in for them.
        fs = self.file_sets[i % len(self.file_sets)]
        shutil.rmtree(fs.pred_dir, ignore_errors=True)
        shutil.rmtree(fs.metrics_dir, ignore_errors=True)

    def op(self, i, prepared):
        k = i % len(self.file_sets)
        fs = self.file_sets[k]
        predict = cli.main([
            "predict", "--checkpoint", str(FIXTURE), "--data", str(fs.data_dir),
            "--raster-dir", str(fs.raster_dir), "--k", str(K), "--seed", str(self.seed),
            "--trace", "--out", str(fs.pred_dir),
        ])
        evaluate = cli.main([
            "evaluate", "--pred", str(fs.pred_dir), "--gt", str(fs.data_dir),
            "--raster-dir", str(fs.raster_dir), "--out", str(fs.metrics_dir),
        ])
        return len(fs.scenes), (k, predict, evaluate)

    def check(self, i, output):
        k, codes = output[0], output[1:]
        if codes != (cli.EXIT_OK, cli.EXIT_OK):
            return [f"set {k}: cli exit codes {codes}"]
        fs = self.file_sets[k]
        report_bytes = (fs.metrics_dir / "metrics.json").read_bytes()
        report = json.loads(report_bytes)
        n_agents = sum(s.n_agents for s in fs.scenes)
        problems = []
        if (report["n_scenes"], report["n_agents"]) != (len(fs.scenes), n_agents):
            problems.append(f"report covers {report['n_scenes']} windows, {report['n_agents']} agents")
        scalars = {key: v for key, v in report.items() if isinstance(v, float)}
        if not all(math.isfinite(v) for v in scalars.values()):
            problems.append("non-finite value in metrics.json")
        preds = sorted(fs.pred_dir.glob("pred_*.txt"))
        traces = list(fs.pred_dir.glob("trace_*.json"))
        if len(preds) != len(fs.scenes) or len(traces) != len(fs.scenes) * K:
            problems.append(f"{len(preds)} prediction and {len(traces)} trace files")
        if problems:
            return [f"set {k}: {p}" for p in problems]
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in preds) + report_bytes).hexdigest()
        if k not in self.first:
            self.first[k] = digest
            self.reports[k] = scalars
        elif digest != self.first[k]:
            return [f"set {k}: repeated predict/evaluate is not bit-identical"]
        return []

    def finish(self):
        operations, problems = 0, []
        for k in range(len(self.file_sets)):
            if k not in self.first:
                operations += 1
                problems += self.check(k, self.op(k, self.prepare(k))[1])
        if problems:
            return {}, operations, problems
        fs = self.file_sets[0]
        scene = fs.scenes[0]
        model = model_mod.Model(self.config.model, self.params)
        pred = model.predict(scene, k=K, seed=self.seed)
        name = f"pred_{scene.scene_id}__w{scene.window_index:03d}.txt"
        records = tpm.load_prediction_txt(fs.pred_dir / name)
        frames = [int(f) for f in scene.frame_ids[self.config.model.t_obs :]]
        from_file = np.array([
            [[records[(j, f, a)] for f in frames] for j in range(K)] for a in scene.agent_ids
        ])
        if not np.array_equal(from_file, pred.trajectories):
            problems.append(f"{scene.key()}: cli prediction differs from Model.predict")
        problems += permutation_problems(model, scene, self.seed, pred.trajectories)
        scenes = [s for f in self.file_sets for s in f.scenes]
        quality = {
            "final_loss": held_out_loss(self.params, self.config, scenes),
            # Every set has as many agents, so this is the pooled minADE.
            "min_ade_20": float(np.mean([r["min_ade"] for r in self.reports.values()])),
        }
        # Every scalar of each set's metrics.json is compared with the stored
        # reference values too.
        for k, report in sorted(self.reports.items()):
            quality.update({f"metrics.json[{k}]:{key}": v for key, v in report.items()})
        return quality, operations + 2, problems

    def finish_ops(self):
        return len(self.file_sets) - len(self.first) + 1


WORKLOADS = {w.name: w for w in (TrainMixed, PredictPairs, CrowdCli)}
